#!/usr/bin/env python3
"""Chaos drill: transient faults and bit-rot against a live encode.

An 8x4 EAR cluster batch-encodes 12 stripes through the MapReduce
pipeline while the chaos layer works against it:

* nodes flap down and back up (in-flight transfers abort and retry);
* one whole rack drops off the core for a while;
* NICs degrade into stragglers;
* blocks silently rot on disk (the scrubber catches them);
* one node dies *permanently*, and the prioritized repair queue decodes
  or re-replicates everything it held.

The run is deterministic: the same seed always produces the same final
cluster state, fingerprinted with sha256.  The drill passes when nothing
is lost.

Run:  python examples/chaos_drill.py [seed]
"""

import sys

from repro.recovery import run_storm


def main(seed: int = 0):
    print(f"running chaos drill with seed {seed}...\n")
    report = run_storm("chaos", seed=seed)

    width = max(len(k) for k in report.summary())
    for key, value in report.summary().items():
        print(f"  {key.ljust(width)}  {value}")

    print()
    if not report.clean:
        print("DRILL FAILED: data was lost or encoding did not finish")
        return 1

    # Same seed, same world: replay and compare fingerprints.
    replay = run_storm("chaos", seed=seed)
    assert replay.fingerprint == report.fingerprint, "drill is nondeterministic!"
    print("drill clean: no data loss, all stripes encoded, "
          "replay fingerprint matches.")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 0))
