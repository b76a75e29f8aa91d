"""Command-line interface: regenerate any paper experiment from a shell.

Usage::

    python -m repro list
    python -m repro fig3
    python -m repro fig8a --stripes 96 --seeds 3
    python -m repro fig13a --stripes-per-process 10 --seeds 2
    python -m repro fig14 --runs 10
    python -m repro journal verify DIR

Every command prints the same table the corresponding benchmark emits; the
``--stripes`` / ``--seeds`` style options trade precision for speed.  Each
subcommand is one row of ``COMMANDS`` (name, handler, help, arguments),
which ``build_parser``, ``list_experiments`` and ``main`` all read.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
from typing import Dict, List, Optional, Sequence

from repro import pipeline, recovery
from repro.analysis.iterations import empirical_attempts, theorem1_bound
from repro.analysis.violation import figure3_table
from repro.erasure.codec import CodeParams
from repro.experiments.charts import bar_chart, line_chart
from repro.experiments.config import LargeScaleConfig, TestbedConfig
from repro.experiments.largescale import (
    sweep_bandwidth,
    sweep_k,
    sweep_m,
    sweep_rack_tolerance,
    sweep_replicas,
    sweep_write_rate,
)
from repro.experiments.loadbalance import read_balance, storage_balance
from repro.experiments.runner import format_table, mean
from repro.experiments.testbed import (
    run_mapreduce_workload,
    run_write_during_encoding,
    sweep_nk,
    sweep_udp,
)
from repro.experiments.validation import (
    encoded_stripes_curves,
    validate_single_stripe_encode,
    validate_write_path,
)
from repro.journal.checkpoint import list_checkpoints
from repro.journal.verify import verify_journal
from repro.journal.wal import list_segments, scan_journal
from repro.parallel import SweepExecutor


def _pct(x: float) -> str:
    return f"{100 * x:+.1f}%"


# ----------------------------------------------------------------------
# Experiment handlers
# ----------------------------------------------------------------------
def cmd_fig3(args) -> None:
    """Figure 3: Equation (1) violation probability."""
    if args.min_racks > args.max_racks:
        args.error("--min-racks must not exceed --max-racks")
    racks = list(range(args.min_racks, args.max_racks + 1, 2))
    ks = (6, 8, 10, 12)
    table = figure3_table(racks, ks)
    rows = [[r] + [f"{table[k][i]:.3f}" for k in ks] for i, r in enumerate(racks)]
    print(format_table(["R"] + [f"k={k}" for k in ks], rows))


def cmd_theorem1(args) -> None:
    """Theorem 1: measured redraws vs the bound."""
    code = CodeParams(args.k + 4, args.k)
    if args.racks < code.n:
        args.error(f"--racks must be at least the stripe width n = k + 4 "
                   f"= {code.n}")
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
    config = TestbedConfig().scaled(args.stripes)
    results = sweep_udp(seeds=range(args.seeds), config=config)
    rows = [
        [f"{rate:.0f}", f"{r['rr']:.0f}", f"{r['ear']:.0f}", _pct(r["gain"])]
        for rate, r in sorted(results.items())
    ]
    print(format_table(["UDP Mb/s", "RR MB/s", "EAR MB/s", "gain"], rows))


def cmd_fig9(args) -> None:
    """Figure 9: write response times while encoding."""
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
    print()
    print(line_chart(
        {policy: curve for policy, curve in curves.items()},
        width=60, height=12, x_label="seconds", y_label="stripes",
    ))


def _executor_from_args(args) -> SweepExecutor:
    """The SweepExecutor ``--workers`` asks for (in-process when absent)."""
    return SweepExecutor(workers=args.workers or 0)


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


def cmd_fig13(sweep, header: str, formatter, args) -> None:
    """Figure 13: encode and write gains along one large-scale sweep."""
    base = LargeScaleConfig().scaled(args.stripes_per_process)
    executor = _executor_from_args(args)
    points = sweep(base=base, seeds=range(args.seeds), executor=executor)
    rows = [
        [formatter(p.parameter), _pct(p.encode_gain), _pct(p.write_gain)]
        for p in points
    ]
    print(format_table([header, "encode gain", "write gain"], rows))
    _report_sweep(args, executor)


def cmd_chaos(args) -> int:
    """Chaos drill: transient faults + corruption during background encoding."""
    report = recovery.run_storm(
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
    if args.head_to_head:
        results = recovery.head_to_head(
            scenario=args.scenario,
            seeds=tuple(range(args.seeds)),
            num_stripes=args.stripes,
            workers=args.workers,
        )
        return _print_grid(results, recovery.head_to_head_rows)

    report = recovery.run_storm(
        args.scenario, seed=args.seed, policy=args.policy,
        num_stripes=args.stripes,
    )
    return _print_run(report.summary(), report.clean, "storm")


def cmd_pipeline(args) -> int:
    """Pipelined archival encoding: strategy drills and head-to-heads."""
    if args.head_to_head:
        results = pipeline.head_to_head(
            seeds=tuple(range(args.seeds)),
            num_stripes=args.stripes,
            chunk_count=args.chunks,
            disturb=not args.no_disturb,
            workers=args.workers,
        )
        return _print_grid(
            results, pipeline.head_to_head_rows, as_json=args.json
        )

    result = pipeline.pipeline_trial(
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


def cmd_fig14(args) -> None:
    """Figure 14: storage load balance."""
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
    executor = _executor_from_args(args)
    sizes = (1, 10, 100, 1000, 10_000)
    result = read_balance(file_sizes=sizes, runs=args.runs, executor=executor)
    rows = [
        [p.upper()] + [f"{100 * result[p][s]:.2f}%" for s in sizes]
        for p in ("rr", "ear")
    ]
    print(format_table(["policy"] + [f"F={s}" for s in sizes], rows))
    _report_sweep(args, executor)


# ----------------------------------------------------------------------
# Tool handlers: list, journal
# ----------------------------------------------------------------------
def cmd_list(args) -> None:
    """Print the experiment ids, one per line."""
    for name in list_experiments():
        print(name)


def _pager_safe(handler):
    """Exit 0 quietly when a downstream pager or ``head`` closes stdout."""

    @functools.wraps(handler)
    def run(args) -> int:
        try:
            return handler(args)
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            return 0

    return run


def _journal_scan(directory: str):
    """Scan a journal; a missing directory is an error, as verify reports."""
    scan = scan_journal(directory)
    if not os.path.isdir(directory):
        scan.errors.append(f"not a directory: {directory}")
    return scan


@_pager_safe
def cmd_journal_dump(args) -> int:
    """Print every record (seq, type, fields) in log order."""
    scan = _journal_scan(args.directory)
    for envelope in scan.envelopes:
        type_tag = envelope.get("type")
        if args.type_filter is not None and type_tag != args.type_filter:
            continue
        if args.as_json:
            print(json.dumps(envelope, sort_keys=True))
        else:
            data = envelope.get("data") or {}
            fields = " ".join(
                f"{key}={data[key]!r}" for key in sorted(data)
            )
            print(f"{envelope['seq']:>8}  {type_tag:<20}  {fields}")
    if scan.torn_tail:
        print(f"# torn tail (tolerated): {scan.torn_tail}", file=sys.stderr)
    for error in scan.errors:
        print(f"# ERROR: {error}", file=sys.stderr)
    return 1 if scan.errors else 0


@_pager_safe
def cmd_journal_verify(args) -> int:
    """Run the structural checks; exit status 1 on any error."""
    report = verify_journal(args.directory)
    print(report.summary())
    return 0 if report.ok else 1


@_pager_safe
def cmd_journal_stats(args) -> int:
    """Record/segment/checkpoint counts, byte sizes, type histogram."""
    directory = args.directory
    scan = _journal_scan(directory)
    histogram: Dict[str, int] = {}
    for envelope in scan.envelopes:
        type_tag = str(envelope.get("type"))
        histogram[type_tag] = histogram.get(type_tag, 0) + 1
    segment_bytes = sum(
        os.path.getsize(path) for _idx, path in list_segments(directory)
    )
    checkpoint_bytes = sum(
        os.path.getsize(path) for _seq, path in list_checkpoints(directory)
    )
    payload = {
        "directory": directory,
        "records": len(scan.envelopes),
        "last_seq": scan.last_seq,
        "segments": len(scan.segments),
        "segment_bytes": segment_bytes,
        "checkpoints": len(list_checkpoints(directory)),
        "checkpoint_bytes": checkpoint_bytes,
        "torn_tail": scan.torn_tail,
        "errors": scan.errors,
        "record_types": {key: histogram[key] for key in sorted(histogram)},
    }
    if args.as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"journal: {directory}")
        print(f"records: {payload['records']} (last seq {payload['last_seq']})")
        print(f"segments: {payload['segments']} ({segment_bytes} bytes)")
        print(
            f"checkpoints: {payload['checkpoints']} "
            f"({checkpoint_bytes} bytes)"
        )
        if scan.torn_tail:
            print(f"torn tail (tolerated): {scan.torn_tail}")
        for error in scan.errors:
            print(f"ERROR: {error}")
        for type_tag in sorted(histogram):
            print(f"  {type_tag:<20} {histogram[type_tag]}")
    return 1 if scan.errors else 0


# ----------------------------------------------------------------------
# The command table
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


def _positive_finite(text: str) -> float:
    """argparse ``type``: a float that is finite and greater than zero."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError("must be positive and finite")
    return value


_positive_finite.__name__ = "float"


def arg(*flags, **kwargs):
    """One ``(flags, kwargs)`` pair, handed as is to ``add_argument``."""
    return flags, kwargs


# Pairs several commands share; every sweep command ends with SWEEP.
SEED = arg("--seed", type=int, default=0)
SWEEP = [
    arg("--workers", type=_at_least(0), default=None,
        help="fan sweep trials out to N worker processes (0 = in-process; "
        "results are identical)"),
]
TESTBED = [
    arg("--stripes", type=_at_least(1), default=96),
    arg("--seeds", type=_at_least(1), default=3),
]
FIG13 = [
    arg("--stripes-per-process", type=_at_least(1), default=10),
    arg("--seeds", type=_at_least(1), default=2),
] + SWEEP
JOURNAL_DIR = arg("directory", help="journal directory")

# (name, handler, help, arguments), in ``repro list`` order.
EXPERIMENTS = (
    ("fig3", cmd_fig3, cmd_fig3.__doc__, [
        arg("--min-racks", type=_at_least(2), default=14),
        arg("--max-racks", type=_at_least(2), default=40),
    ]),
    ("theorem1", cmd_theorem1, cmd_theorem1.__doc__, [
        arg("--racks", type=int, default=20),
        arg("--k", type=_at_least(1), default=10),
        arg("--stripes", type=_at_least(1), default=300),
        SEED,
    ]),
    ("fig8a", cmd_fig8a, cmd_fig8a.__doc__, TESTBED),
    ("fig8b", cmd_fig8b, cmd_fig8b.__doc__, TESTBED),
    ("fig9", cmd_fig9, cmd_fig9.__doc__, TESTBED),
    ("fig10", cmd_fig10, cmd_fig10.__doc__, [
        arg("--jobs", type=_at_least(1), default=30),
        SEED,
    ]),
    ("fig12", cmd_fig12, cmd_fig12.__doc__, [
        arg("--stripes", type=_at_least(1), default=96),
        SEED,
    ]),
    ("fig13a", functools.partial(cmd_fig13, sweep_k, "k", int),
     "Figure 13(a): gains vs k.", FIG13),
    ("fig13b", functools.partial(cmd_fig13, sweep_m, "n-k", int),
     "Figure 13(b): gains vs n - k.", FIG13),
    ("fig13c", functools.partial(cmd_fig13, sweep_bandwidth, "Gb/s", str),
     "Figure 13(c): gains vs link bandwidth.", FIG13),
    ("fig13d", functools.partial(cmd_fig13, sweep_write_rate, "req/s", str),
     "Figure 13(d): gains vs write request rate.", FIG13),
    ("fig13e", functools.partial(cmd_fig13, sweep_rack_tolerance, "t", int),
     "Figure 13(e): gains vs EAR's tolerable rack failures.", FIG13),
    ("fig13f", functools.partial(cmd_fig13, sweep_replicas, "replicas", int),
     "Figure 13(f): gains vs replication factor.", FIG13),
    ("fig14", cmd_fig14, cmd_fig14.__doc__, [
        arg("--blocks", type=_at_least(1), default=10_000),
        arg("--runs", type=_at_least(1), default=10),
    ] + SWEEP),
    ("fig15", cmd_fig15, cmd_fig15.__doc__, [
        arg("--runs", type=_at_least(1), default=10),
    ] + SWEEP),
    ("chaos", cmd_chaos, cmd_chaos.__doc__, [
        SEED,
        arg("--stripes", type=_at_least(1), default=12),
        arg("--flaps", type=_at_least(0), default=4),
        arg("--rack-outages", type=_at_least(0), default=1),
        arg("--corruptions", type=_at_least(0), default=3),
        arg("--horizon", type=_positive_finite, default=40.0),
    ]),
    ("recovery", cmd_recovery, cmd_recovery.__doc__, [
        arg("scenario", nargs="?", default="single_node_loss",
            choices=["single_node_loss", "rack_loss", "scrub_storm",
                     "rolling_failures", "chaos"],
            help="which storm to run (default: single_node_loss)"),
        SEED,
        arg("--policy", default="ear", choices=["rr", "ear", "recovery"],
            help="placement policy for a single-scenario run"),
        arg("--stripes", type=_at_least(1), default=6),
        arg("--head-to-head", action="store_true",
            help="run the rr/ear/recovery x code comparison grid instead of "
            "one policy"),
        arg("--seeds", type=_at_least(1), default=1,
            help="with --head-to-head: seeds per grid cell"),
    ] + SWEEP),
    ("pipeline", cmd_pipeline, cmd_pipeline.__doc__, [
        arg("--strategy", default="pipeline",
            choices=["rr", "ear", "pipeline"],
            help="contender for a single run: rr/ear download-and-encode or "
            "the pipelined strategy (default: pipeline)"),
        SEED,
        arg("--stripes", type=_at_least(1), default=6),
        arg("--chunks", type=_at_least(1), default=4,
            help="chunks each block is streamed in along the pipeline"),
        arg("--no-disturb", action="store_true",
            help="skip the mid-encode node failure (measure the clean wave)"),
        arg("--head-to-head", action="store_true",
            help="run the rr/ear/pipeline comparison grid instead of one "
            "strategy"),
        arg("--json", action="store_true",
            help="emit raw trial results as JSON instead of a table"),
        arg("--seeds", type=_at_least(1), default=1,
            help="with --head-to-head: seeds per contender"),
    ] + SWEEP),
)

# The tools follow the experiments.  A row with a fifth item (and no
# handler of its own) nests those rows as its subcommands.
COMMANDS = EXPERIMENTS + (
    ("list", cmd_list, "list available experiments", []),
    ("journal", None, "Inspect and verify write-ahead metadata journals.",
     [], (
        ("dump", cmd_journal_dump, "print every record in log order", [
            JOURNAL_DIR,
            arg("--json", action="store_true", dest="as_json",
                help="one JSON object per line instead of aligned text"),
            arg("--type", dest="type_filter", default=None,
                help="only records of this type tag (e.g. encode_stripe)"),
        ]),
        ("verify", cmd_journal_verify,
         "structural checks; non-zero exit on errors", [JOURNAL_DIR]),
        ("stats", cmd_journal_stats, "counts, sizes, type histogram", [
            JOURNAL_DIR,
            arg("--json", action="store_true", dest="as_json",
                help="machine-readable JSON output"),
        ]),
    )),
)


def _add_commands(parser, dest: str, rows, required: bool = False) -> None:
    """One subparser per row; nested rows land under ``<name>_command``."""
    sub = parser.add_subparsers(dest=dest, required=required)
    for name, handler, help_text, arguments, *nested in rows:
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        if nested:
            _add_commands(p, f"{name}_command", nested[0], required=True)
        else:
            # ``error`` lets a handler reject a combination of arguments
            # with this subcommand's usage line and exit status 2.
            p.set_defaults(func=handler, error=p.error)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser from ``COMMANDS``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate experiments from Li, Hu & Lee (DSN 2015).",
    )
    _add_commands(parser, "command", COMMANDS)
    return parser


def list_experiments() -> List[str]:
    """Experiment ids the CLI can run."""
    return [name for name, *_ in EXPERIMENTS]


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    result = args.func(args)
    return 0 if result is None else int(result)


if __name__ == "__main__":
    sys.exit(main())
