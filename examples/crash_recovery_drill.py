#!/usr/bin/env python3
"""Crash-recovery drill: kill the metadata plane at every commit stage.

A (6,4) EAR cluster runs a deterministic metadata workload — file
creates, block writes, corruption churn, stripe encodes, relocations,
deletes — against the write-ahead journal, one record per event.  A
golden run records a state fingerprint before every journal record.
Then, for every block-write and stripe-encode record (plus three
controls) x {before, torn, after},
the same seeded workload is re-run, crashed at that exact point, and
recovered from its journal directory; recovery must reproduce the
fingerprint of exactly the durable prefix, with no stripe left
half-committed.

The run is a pure function of its seed.  Pass ``--keep DIR`` to leave
the journal directories on disk (CI points ``repro journal verify`` at
them afterwards).

Run:  python examples/crash_recovery_drill.py [seed] [--keep DIR]
"""

import argparse
import sys
import tempfile

from repro.faults.crash import run_crash_matrix


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seed", nargs="?", type=int, default=0)
    parser.add_argument(
        "--keep", metavar="DIR", default=None,
        help="write journal directories under DIR and leave them there",
    )
    parser.add_argument(
        "--checkpoint-midway", action="store_true",
        help="also exercise the checkpoint + log-tail recovery path",
    )
    args = parser.parse_args(argv)

    print(f"running crash-recovery drill with seed {args.seed}...\n")
    if args.keep is not None:
        report = run_crash_matrix(
            args.seed, args.keep, checkpoint_midway=args.checkpoint_midway
        )
    else:
        with tempfile.TemporaryDirectory() as base:
            report = run_crash_matrix(
                args.seed, base, checkpoint_midway=args.checkpoint_midway
            )

    summary = report.summary()
    width = max(len(key) for key in summary)
    for key, value in summary.items():
        print(f"  {key.ljust(width)}  {value}")

    print()
    if not report.clean:
        for case in report.cases:
            if not case.clean:
                print(f"FAILED at seq {case.point.seq} ({case.point.phase}): "
                      f"expected {case.expected[:16]} "
                      f"recovered {case.recovered[:16]} "
                      f"problems={case.half_commit_problems} "
                      f"errors={case.verify_errors + case.recovery_errors}")
        print("DRILL FAILED: some crash point did not recover consistently")
        return 1
    print("drill clean: every crash point recovered the durable prefix, "
          "no half-committed stripes.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
