#!/usr/bin/env python3
"""Recovery storm drill: correlated failures against encoded stripes.

Runs every scenario of the harness — single node loss under MapReduce
load, whole-rack loss, a scrub storm over latent corruption, rolling
failures during an in-progress encoding wave, and the transient-fault
chaos drill — for one placement policy and seed, then a rack-loss
head-to-head of EAR versus recovery-aware placement.  Every run is a
pure function of its seed: the fingerprint printed per scenario is
reproducible across machines and worker counts.

A drill passes when every scenario ends clean (no unrecoverable blocks,
every stripe re-protected) and the recovery-aware policy repairs the
lost rack no slower than EAR.

Run:  python examples/recovery_storm_drill.py [seed] [--policy ear]
"""

import argparse
import sys

from repro.recovery import SCENARIO_RUNNERS, run_storm


def run_scenarios(seed, policy):
    reports = []
    for scenario in SCENARIO_RUNNERS:
        print(f"=== {scenario} (policy={policy}, seed={seed}) ===")
        report = run_storm(scenario, seed=seed, policy=policy, num_stripes=4)
        summary = report.summary()
        width = max(len(key) for key in summary)
        for key, value in summary.items():
            print(f"  {key.ljust(width)}  {value}")
        print()
        reports.append(report)
    return reports


def rack_loss_head_to_head(seed):
    print(f"=== rack_loss head-to-head (seed={seed}) ===")
    means = {}
    for policy in ("ear", "recovery"):
        report = run_storm("rack_loss", seed=seed, policy=policy, num_stripes=4)
        mean = report.metrics.get("repair_time_mean", 0.0)
        means[policy] = mean
        print(
            f"  {policy.ljust(8)}  repair_time_mean={mean:.4f}"
            f"  clean={report.clean}"
        )
    if means["recovery"] <= means["ear"]:
        gain = 1.0 - means["recovery"] / means["ear"] if means["ear"] else 0.0
        print(f"  recovery-aware placement repairs {gain:.0%} faster than EAR")
        return True
    print("  FAIL: recovery-aware placement repaired slower than EAR")
    return False


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seed", nargs="?", type=int, default=0)
    parser.add_argument(
        "--policy", choices=("rr", "ear", "recovery"), default="ear",
        help="placement policy for the per-scenario pass",
    )
    args = parser.parse_args(argv)

    reports = run_scenarios(args.seed, args.policy)
    head_to_head_ok = rack_loss_head_to_head(args.seed)

    print()
    dirty = [r for r in reports if not r.clean]
    if dirty:
        for report in dirty:
            print(
                f"STORM FAILED: {report.scenario} left"
                f" {len(report.unrecoverable)} unrecoverable block(s)"
            )
        return 1
    if not head_to_head_ok:
        return 1
    print("all storms clean: no data loss, every stripe re-protected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
