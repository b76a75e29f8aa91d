#!/usr/bin/env python3
"""Recovery storm drill: correlated failures against encoded stripes.

Runs every scenario of the harness — single node loss under MapReduce
load, whole-rack loss, a scrub storm over latent corruption, rolling
failures during an in-progress encoding wave, and the transient-fault
chaos drill — for one placement policy and seed, then a rack-loss
head-to-head of EAR versus recovery-aware placement.  Every run is a
pure function of its seed: the fingerprint printed per scenario is
reproducible across machines and worker counts.

The head-to-head pairs the two policies on ``PAIRED_SEEDS`` consecutive
seeds at ``PAIRED_STRIPES`` stripes and takes the 95% confidence
interval of each metric's paired difference (EAR minus recovery).  What
the spread placement buys is margin-zero exposure: the interval of
``time_at_margin_zero`` must lie above zero.  ``unavailability_total``
and ``repair_time_mean`` are printed with their intervals but decide
nothing — neither separates at this size (mean repair time favours
either policy about half the time).

A drill passes when every scenario ends clean (no unrecoverable blocks,
every stripe re-protected) and recovery-aware placement spends less time
at margin zero than EAR.

Run:  python examples/recovery_storm_drill.py [seed] [--policy ear]
"""

import argparse
import sys

from repro.experiments.stats import confidence_interval_95
from repro.recovery import SCENARIO_RUNNERS, run_storm

#: Seeds paired per head-to-head, and stripes per storm.
PAIRED_SEEDS = 8
PAIRED_STRIPES = 40
#: The metric whose paired interval decides the verdict, then the ones
#: only printed.
VERDICT_METRIC = "time_at_margin_zero"
PRINTED_METRICS = ("unavailability_total", "repair_time_mean")


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
    seeds = range(seed, seed + PAIRED_SEEDS)
    print(
        f"=== rack_loss head-to-head: ear - recovery, paired over seeds "
        f"{seeds.start}..{seeds.stop - 1}, {PAIRED_STRIPES} stripes ==="
    )
    differences = {name: [] for name in (VERDICT_METRIC,) + PRINTED_METRICS}
    for paired in seeds:
        metrics = {
            policy: run_storm(
                "rack_loss", seed=paired, policy=policy,
                num_stripes=PAIRED_STRIPES,
            ).metrics
            for policy in ("ear", "recovery")
        }
        for name, values in differences.items():
            values.append(metrics["ear"][name] - metrics["recovery"][name])
    for name, values in differences.items():
        low, high = confidence_interval_95(values)
        wins = sum(1 for value in values if value > 0)
        print(
            f"  {name.ljust(22)}  95% CI [{low:.3f}, {high:.3f}]"
            f"  recovery lower on {wins}/{len(values)} seeds"
        )
    low, __ = confidence_interval_95(differences[VERDICT_METRIC])
    if low > 0:
        print(f"  recovery-aware placement cuts {VERDICT_METRIC}")
        return True
    print(f"  FAIL: recovery-aware placement does not cut {VERDICT_METRIC}")
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
