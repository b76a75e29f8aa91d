"""Command-line interface: regenerate any paper experiment from a shell.

Usage::

    python -m repro list
    python -m repro fig3
    python -m repro fig8a --stripes 96 --seeds 3
    python -m repro fig13a --stripes-per-process 10 --seeds 2
    python -m repro fig14 --runs 10

Every command prints the same table the corresponding benchmark emits; the
``--stripes`` / ``--seeds`` style options trade precision for speed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.erasure.codec import CodeParams
from repro.experiments.config import LargeScaleConfig, TestbedConfig
from repro.experiments.runner import format_table, mean
from repro.parallel import DEFAULT_CACHE_DIR, make_executor


def _pct(x: float) -> str:
    return f"{100 * x:+.1f}%"


# ----------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------
def cmd_fig3(args) -> None:
    """Figure 3: Equation (1) violation probability."""
    from repro.analysis.violation import figure3_table

    racks = list(range(args.min_racks, args.max_racks + 1, 2))
    ks = (6, 8, 10, 12)
    table = figure3_table(racks, ks)
    rows = [[r] + [f"{table[k][i]:.3f}" for k in ks] for i, r in enumerate(racks)]
    print(format_table(["R"] + [f"k={k}" for k in ks], rows))


def cmd_theorem1(args) -> None:
    """Theorem 1: measured redraws vs the bound."""
    import random

    from repro.analysis.iterations import empirical_attempts, theorem1_bound

    code = CodeParams(args.k + 4, args.k)
    measured = empirical_attempts(
        num_racks=args.racks,
        nodes_per_rack=40,
        code=code,
        num_stripes=args.stripes,
        rng=random.Random(args.seed),
    )
    rows = [
        [i, f"{measured[i]:.3f}", f"{theorem1_bound(i, args.racks):.3f}"]
        for i in range(1, code.k + 1)
    ]
    print(format_table(["i", "measured E_i", "bound"], rows))


def cmd_fig8a(args) -> None:
    """Figure 8(a): encoding throughput vs (n, k)."""
    from repro.experiments.testbed import sweep_nk

    from repro.experiments.charts import bar_chart

    config = TestbedConfig().scaled(args.stripes)
    results = sweep_nk(ks=(4, 6, 8, 10), seeds=range(args.seeds), config=config)
    rows = [
        [f"({k + 2},{k})", f"{r['rr']:.0f}", f"{r['ear']:.0f}", _pct(r["gain"])]
        for k, r in sorted(results.items())
    ]
    print(format_table(["(n,k)", "RR MB/s", "EAR MB/s", "gain"], rows))
    print()
    labels, values = [], []
    for k, r in sorted(results.items()):
        labels.extend([f"({k + 2},{k}) RR", f"({k + 2},{k}) EAR"])
        values.extend([round(r["rr"]), round(r["ear"])])
    print(bar_chart(labels, values, unit=" MB/s"))


def cmd_fig8b(args) -> None:
    """Figure 8(b): encoding throughput vs UDP cross-traffic."""
    from repro.experiments.testbed import sweep_udp

    config = TestbedConfig().scaled(args.stripes)
    results = sweep_udp(seeds=range(args.seeds), config=config)
    rows = [
        [f"{rate:.0f}", f"{r['rr']:.0f}", f"{r['ear']:.0f}", _pct(r["gain"])]
        for rate, r in sorted(results.items())
    ]
    print(format_table(["UDP Mb/s", "RR MB/s", "EAR MB/s", "gain"], rows))


def cmd_fig9(args) -> None:
    """Figure 9: write response times while encoding."""
    from repro.experiments.testbed import run_write_during_encoding

    config = TestbedConfig().scaled(args.stripes)
    rows = []
    for policy in ("rr", "ear"):
        results = [
            run_write_during_encoding(policy, config=config, seed=s)
            for s in range(args.seeds)
        ]
        rows.append([
            policy.upper(),
            f"{mean(r.write_rt_before for r in results):.2f}",
            f"{mean(r.write_rt_during for r in results):.2f}",
            f"{mean(r.encoding_time for r in results):.0f}",
        ])
    print(format_table(
        ["policy", "RT before (s)", "RT during (s)", "encode time (s)"], rows
    ))


def cmd_fig10(args) -> None:
    """Figure 10: SWIM MapReduce jobs before encoding."""
    from repro.experiments.testbed import run_mapreduce_workload

    config = TestbedConfig()
    rows = []
    for policy in ("rr", "ear"):
        records = run_mapreduce_workload(
            policy, num_jobs=args.jobs, config=config, seed=args.seed
        )
        rows.append([
            policy.upper(),
            f"{max(r.finish_time for r in records):.0f}",
            f"{mean(r.runtime for r in records):.1f}",
        ])
    print(format_table(["policy", "makespan (s)", "mean runtime (s)"], rows))


def cmd_fig12(args) -> None:
    """Figure 12 / Table I: validation curves and write RTs."""
    from repro.experiments.validation import (
        encoded_stripes_curves,
        validate_single_stripe_encode,
        validate_write_path,
    )

    config = TestbedConfig().scaled(args.stripes)
    for check in (
        validate_write_path(config),
        validate_single_stripe_encode(config=config),
    ):
        print(f"{check.name}: measured {check.measured:.4f}s, "
              f"expected {check.expected:.4f}s "
              f"(error {check.relative_error:.2e})")
    curves = encoded_stripes_curves(config=config, seed=args.seed)
    rows = [
        [policy.upper(), f"{curve[-1][0]:.0f}"]
        for policy, curve in curves.items()
    ]
    print(format_table(["policy", f"time to encode {config.num_stripes} stripes (s)"], rows))
    from repro.experiments.charts import line_chart

    print()
    print(line_chart(
        {policy: curve for policy, curve in curves.items()},
        width=60, height=12, x_label="seconds", y_label="stripes",
    ))


def _cache_dir_from_args(args) -> Optional[str]:
    """Where ``--workers`` runs cache results (flagless runs never do)."""
    return None if args.no_cache else DEFAULT_CACHE_DIR


def _executor_from_args(args):
    """Build the SweepExecutor that ``--workers``/``--no-cache`` ask for."""
    return make_executor(args.workers, _cache_dir_from_args(args))


def _report_sweep(args, executor) -> None:
    if args.workers is not None:
        print(f"[sweep] {executor.last_report.summary()}")


def _print_grid(results, rows_of, as_json: bool = False) -> int:
    """Print a head-to-head grid; exit status 1 unless every cell is clean."""
    if as_json:
        print(json.dumps(results, indent=2, sort_keys=True))
    else:
        rows = rows_of(results)
        headers = list(rows[0].keys())
        print(format_table(
            headers, [[str(row[h]) for h in headers] for row in rows]
        ))
    return 0 if all(r["clean"] for r in results) else 1


def _print_run(summary, clean: bool, noun: str, as_json: bool = False) -> int:
    """Print one scenario run; exit status 1 unless it was clean."""
    if as_json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        rows = [[key, str(value)] for key, value in summary.items()]
        print(format_table(["metric", "value"], rows))
        print(
            f"\n{noun} clean: no data loss, every stripe encoded"
            if clean else
            f"\n{noun.upper()} FAILED: data was lost or encoding did not "
            "finish"
        )
    return 0 if clean else 1


def _largescale_sweep(sweep, args, header: str, formatter) -> None:
    base = LargeScaleConfig().scaled(args.stripes_per_process)
    executor = _executor_from_args(args)
    points = sweep(base=base, seeds=range(args.seeds), executor=executor)
    rows = [
        [formatter(p.parameter), _pct(p.encode_gain), _pct(p.write_gain)]
        for p in points
    ]
    print(format_table([header, "encode gain", "write gain"], rows))
    _report_sweep(args, executor)


def cmd_fig13a(args) -> None:
    """Figure 13(a): gains vs k."""
    from repro.experiments.largescale import sweep_k

    _largescale_sweep(sweep_k, args, "k", lambda v: int(v))


def cmd_fig13b(args) -> None:
    """Figure 13(b): gains vs n - k."""
    from repro.experiments.largescale import sweep_m

    _largescale_sweep(sweep_m, args, "n-k", lambda v: int(v))


def cmd_fig13c(args) -> None:
    """Figure 13(c): gains vs link bandwidth."""
    from repro.experiments.largescale import sweep_bandwidth

    _largescale_sweep(sweep_bandwidth, args, "Gb/s", lambda v: v)


def cmd_fig13d(args) -> None:
    """Figure 13(d): gains vs write request rate."""
    from repro.experiments.largescale import sweep_write_rate

    _largescale_sweep(sweep_write_rate, args, "req/s", lambda v: v)


def cmd_fig13e(args) -> None:
    """Figure 13(e): gains vs EAR's tolerable rack failures."""
    from repro.experiments.largescale import sweep_rack_tolerance

    _largescale_sweep(sweep_rack_tolerance, args, "t", lambda v: int(v))


def cmd_fig13f(args) -> None:
    """Figure 13(f): gains vs replication factor."""
    from repro.experiments.largescale import sweep_replicas

    _largescale_sweep(sweep_replicas, args, "replicas", lambda v: int(v))


def cmd_chaos(args) -> int:
    """Chaos drill: transient faults + corruption during background encoding."""
    from repro.recovery import run_storm

    report = run_storm(
        "chaos",
        seed=args.seed,
        num_stripes=args.stripes,
        num_flaps=args.flaps,
        num_rack_outages=args.rack_outages,
        num_corruptions=args.corruptions,
        horizon=args.horizon,
    )
    return _print_run(report.summary(), report.clean, "drill")


def cmd_recovery(args) -> int:
    """Recovery storms: degraded reads and correlated-failure drills."""
    from repro.recovery import head_to_head, head_to_head_rows, run_storm

    if args.head_to_head:
        results = head_to_head(
            scenario=args.scenario,
            seeds=tuple(range(args.seeds)),
            num_stripes=args.stripes,
            workers=args.workers,
            cache_dir=_cache_dir_from_args(args),
        )
        return _print_grid(results, head_to_head_rows)

    report = run_storm(
        args.scenario, seed=args.seed, policy=args.policy,
        num_stripes=args.stripes,
    )
    return _print_run(report.summary(), report.clean, "storm")


def cmd_pipeline(args) -> int:
    """Pipelined archival encoding: strategy drills and head-to-heads."""
    from repro.pipeline import head_to_head, head_to_head_rows, pipeline_trial

    if args.head_to_head:
        results = head_to_head(
            seeds=tuple(range(args.seeds)),
            num_stripes=args.stripes,
            chunk_count=args.chunks,
            disturb=not args.no_disturb,
            workers=args.workers,
            cache_dir=_cache_dir_from_args(args),
        )
        return _print_grid(results, head_to_head_rows, as_json=args.json)

    result = pipeline_trial(
        seed=args.seed,
        contender=args.strategy,
        num_stripes=args.stripes,
        chunk_count=args.chunks,
        disturb=not args.no_disturb,
    )
    return _print_run(
        dict(sorted(result.items())), result["clean"], "pipeline run",
        as_json=args.json,
    )


def cmd_lint(args) -> int:
    """reprolint: AST-based determinism & resource-safety checks."""
    from repro.lint.cli import cmd_lint as run

    return run(args)


def cmd_journal(args) -> int:
    """Inspect and verify write-ahead metadata journals."""
    from repro.journal.cli import cmd_journal as run

    return run(args)


def cmd_fig14(args) -> None:
    """Figure 14: storage load balance."""
    from repro.experiments.loadbalance import storage_balance

    executor = _executor_from_args(args)
    shares = storage_balance(
        num_blocks=args.blocks, runs=args.runs, executor=executor
    )
    ranks = (0, 4, 9, 14, 19)
    rows = [
        [p.upper()] + [f"{100 * shares[p][r]:.3f}%" for r in ranks]
        for p in ("rr", "ear")
    ]
    print(format_table(["policy"] + [f"rank {r + 1}" for r in ranks], rows))
    _report_sweep(args, executor)


def cmd_fig15(args) -> None:
    """Figure 15: read load balance (hotness index)."""
    from repro.experiments.loadbalance import read_balance

    executor = _executor_from_args(args)
    sizes = (1, 10, 100, 1000, 10_000)
    result = read_balance(file_sizes=sizes, runs=args.runs, executor=executor)
    rows = [
        [p.upper()] + [f"{100 * result[p][s]:.2f}%" for s in sizes]
        for p in ("rr", "ear")
    ]
    print(format_table(["policy"] + [f"F={s}" for s in sizes], rows))
    _report_sweep(args, executor)


def cmd_cache(args) -> int:
    """Inspect or clear the parallel sweep result cache."""
    from repro.parallel.cli import cmd_cache as run

    return run(args)


# ----------------------------------------------------------------------
# Parser assembly
# ----------------------------------------------------------------------
def _at_least(minimum: int):
    """argparse ``type``: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}")
        return value

    parse.__name__ = "int"  # argparse names the type in its error message
    return parse


def _add_sweep_arguments(
    parser: argparse.ArgumentParser,
    seeds: Optional[int] = None,
    seeds_help: Optional[str] = None,
) -> None:
    """The options every sweep command shares, validated in one place."""
    if seeds is not None:
        parser.add_argument(
            "--seeds", type=_at_least(1), default=seeds, help=seeds_help
        )
    parser.add_argument(
        "--workers",
        type=_at_least(0),
        default=None,
        help="fan sweep trials out to N worker processes and cache results "
        "on disk (0 = in-process, cached; results are identical)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="with --workers: skip the on-disk result cache",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate experiments from Li, Hu & Lee (DSN 2015).",
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list available experiments")

    p = sub.add_parser("fig3", help=cmd_fig3.__doc__)
    p.add_argument("--min-racks", type=int, default=14)
    p.add_argument("--max-racks", type=int, default=40)
    p.set_defaults(func=cmd_fig3)

    p = sub.add_parser("theorem1", help=cmd_theorem1.__doc__)
    p.add_argument("--racks", type=int, default=20)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--stripes", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_theorem1)

    for name, func in (("fig8a", cmd_fig8a), ("fig8b", cmd_fig8b),
                       ("fig9", cmd_fig9)):
        p = sub.add_parser(name, help=func.__doc__)
        p.add_argument("--stripes", type=int, default=96)
        p.add_argument("--seeds", type=_at_least(1), default=3)
        p.set_defaults(func=func)

    p = sub.add_parser("fig10", help=cmd_fig10.__doc__)
    p.add_argument("--jobs", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fig10)

    p = sub.add_parser("fig12", help=cmd_fig12.__doc__)
    p.add_argument("--stripes", type=int, default=96)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fig12)

    for name, func in (
        ("fig13a", cmd_fig13a), ("fig13b", cmd_fig13b),
        ("fig13c", cmd_fig13c), ("fig13d", cmd_fig13d),
        ("fig13e", cmd_fig13e), ("fig13f", cmd_fig13f),
    ):
        p = sub.add_parser(name, help=func.__doc__)
        p.add_argument("--stripes-per-process", type=int, default=10)
        _add_sweep_arguments(p, seeds=2)
        p.set_defaults(func=func)

    p = sub.add_parser("chaos", help=cmd_chaos.__doc__)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stripes", type=int, default=12)
    p.add_argument("--flaps", type=int, default=4)
    p.add_argument("--rack-outages", type=int, default=1)
    p.add_argument("--corruptions", type=int, default=3)
    p.add_argument("--horizon", type=float, default=40.0)
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser("recovery", help=cmd_recovery.__doc__)
    p.add_argument(
        "scenario",
        nargs="?",
        default="single_node_loss",
        choices=[
            "single_node_loss", "rack_loss", "scrub_storm",
            "rolling_failures", "chaos",
        ],
        help="which storm to run (default: single_node_loss)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--policy", default="ear", choices=["rr", "ear", "recovery"],
        help="placement policy for a single-scenario run",
    )
    p.add_argument("--stripes", type=int, default=6)
    p.add_argument(
        "--head-to-head", action="store_true",
        help="run the rr/ear/recovery x code comparison grid instead of "
        "one policy",
    )
    _add_sweep_arguments(
        p, seeds=1, seeds_help="with --head-to-head: seeds per grid cell"
    )
    p.set_defaults(func=cmd_recovery)

    p = sub.add_parser("pipeline", help=cmd_pipeline.__doc__)
    p.add_argument(
        "--strategy", default="pipeline",
        choices=["rr", "ear", "pipeline"],
        help="contender for a single run: rr/ear download-and-encode or "
        "the pipelined strategy (default: pipeline)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stripes", type=int, default=6)
    p.add_argument(
        "--chunks", type=int, default=4,
        help="chunks each block is streamed in along the pipeline",
    )
    p.add_argument(
        "--no-disturb", action="store_true",
        help="skip the mid-encode node failure (measure the clean wave)",
    )
    p.add_argument(
        "--head-to-head", action="store_true",
        help="run the rr/ear/pipeline comparison grid instead of one "
        "strategy",
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit raw trial results as JSON instead of a table",
    )
    _add_sweep_arguments(
        p, seeds=1, seeds_help="with --head-to-head: seeds per contender"
    )
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("lint", help=cmd_lint.__doc__)
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(p)
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("journal", help=cmd_journal.__doc__)
    from repro.journal.cli import add_journal_arguments

    add_journal_arguments(p)
    p.set_defaults(func=cmd_journal)

    p = sub.add_parser("fig14", help=cmd_fig14.__doc__)
    p.add_argument("--blocks", type=int, default=10_000)
    p.add_argument("--runs", type=int, default=10)
    _add_sweep_arguments(p)
    p.set_defaults(func=cmd_fig14)

    p = sub.add_parser("fig15", help=cmd_fig15.__doc__)
    p.add_argument("--runs", type=int, default=10)
    _add_sweep_arguments(p)
    p.set_defaults(func=cmd_fig15)

    p = sub.add_parser("cache", help=cmd_cache.__doc__)
    from repro.parallel.cli import add_cache_arguments

    add_cache_arguments(p)
    p.set_defaults(func=cmd_cache)

    return parser


def list_experiments() -> List[str]:
    """Experiment ids the CLI can run."""
    return [
        "fig3", "theorem1", "fig8a", "fig8b", "fig9", "fig10", "fig12",
        "fig13a", "fig13b", "fig13c", "fig13d", "fig13e", "fig13f",
        "fig14", "fig15", "chaos", "recovery", "pipeline",
    ]


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "list":
        for name in list_experiments():
            print(name)
        return 0
    result = args.func(args)
    return 0 if result is None else int(result)


if __name__ == "__main__":
    sys.exit(main())
