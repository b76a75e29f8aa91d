#!/usr/bin/env python3
"""Replication-to-erasure-coding migration on the simulated testbed.

Reproduces the heart of the paper's Experiment A.1/A.2 story as a runnable
scenario: a 12-rack HDFS cluster writes 64 MB blocks under RR and under
EAR, then encodes them to (10, 8) Reed-Solomon with a 12-map MapReduce job
while a Poisson write stream keeps arriving.  Prints encoding throughput,
write response times before/during encoding, and the cross-rack traffic
both policies generated.

The closing verdict pairs RR and EAR on ``PAIRED_SEEDS`` consecutive seeds
and takes the 95% confidence interval of each paired difference (RR
minus EAR) of encoding time and of write RT during encoding.  It claims
that EAR encodes faster and disturbs writes less only when both intervals
lie above zero; an interval that spans zero gives no verdict.

Run:  python examples/encoding_migration.py [--stripes N] [--seed S]
"""

import argparse
import math

from repro.erasure.codec import CodeParams
from repro.experiments.config import TestbedConfig
from repro.experiments.runner import format_table
from repro.experiments.stats import confidence_interval_95
from repro.experiments.testbed import run_raw_encoding, run_write_during_encoding

#: Seeds paired per verdict, starting at ``--seed``.
PAIRED_SEEDS = 8
#: The paired metrics, in seconds; lower is better.
VERDICT_METRICS = ("encoding_time", "write_rt_during")


def _rt(seconds):
    """A mean write RT; ``None`` when no write landed in the window."""
    return "-" if seconds is None else f"{seconds:.2f}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--stripes", type=int, default=96,
        help="stripes to write and encode (paper: 96)",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    config = TestbedConfig().scaled(args.stripes)
    code = CodeParams(10, 8)
    print(f"testbed: {config.num_racks} single-node racks, 1 Gb/s, "
          f"{args.stripes} stripes of {code}\n")

    # --- raw encoding (Experiment A.1) -----------------------------------
    rows = []
    raw = {}
    for policy in ("rr", "ear"):
        result = run_raw_encoding(policy, code, config, seed=args.seed)
        raw[policy] = result
        rows.append([
            policy.upper(),
            f"{result.throughput_mb_s:.0f}",
            f"{result.encoding_time:.0f}",
            result.cross_rack_downloads,
            result.cross_rack_uploads,
        ])
    gain = raw["ear"].throughput_mb_s / raw["rr"].throughput_mb_s - 1
    print("Raw encoding performance:")
    print(format_table(
        ["policy", "encode MB/s", "time (s)", "x-rack downloads",
         "x-rack uploads"],
        rows,
    ))
    print(f"-> EAR encoding throughput gain: {100 * gain:+.1f}% "
          "(paper: +20% to +120% depending on congestion)\n")

    # --- encoding under live writes (Experiment A.2) ----------------------
    seeds = range(args.seed, args.seed + PAIRED_SEEDS)
    runs = {
        seed: {
            policy: run_write_during_encoding(
                policy, code, config, seed=seed, write_rate=0.5,
                warmup_duration=120.0,
            )
            for policy in ("rr", "ear")
        }
        for seed in seeds
    }
    rows = []
    for policy, result in runs[args.seed].items():
        rows.append([
            policy.upper(),
            _rt(result.write_rt_before),
            _rt(result.write_rt_during),
            f"{result.encoding_time:.0f}",
        ])
    print("Encoding while serving writes (0.5 writes/s):")
    print(format_table(
        ["policy", "write RT before (s)", "write RT during (s)",
         "encoding time (s)"],
        rows,
    ))
    print(f"\nRR - EAR, paired over seeds {seeds.start}..{seeds.stop - 1}:")
    intervals = []
    for name in VERDICT_METRICS:
        pairs = [
            (getattr(runs[s]["rr"], name), getattr(runs[s]["ear"], name))
            for s in seeds
        ]
        # A seed whose encoding window saw no write has no write RT.
        differences = [
            rr - ear for rr, ear in pairs if rr is not None and ear is not None
        ]
        if len(differences) < 2:
            print(f"  {name:<16} fewer than two paired seeds")
            intervals.append((-math.inf, math.inf))
            continue
        low, high = confidence_interval_95(differences)
        print(f"  {name:<16} 95% CI [{low:.2f}, {high:.2f}] s"
              f" over {len(differences)} seeds")
        intervals.append((low, high))
    if all(low > 0 for low, __ in intervals):
        print("-> EAR encodes faster *and* disturbs foreground writes less.")
    elif any(low <= 0 <= high for low, high in intervals):
        print("-> no verdict: an interval spans 0.")
    else:
        print("-> RR wins on a metric: an interval lies below 0.")


if __name__ == "__main__":
    main()
