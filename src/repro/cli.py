"""Command-line interface: regenerate any paper experiment from a shell.

Usage::

    python -m repro list
    python -m repro fig3
    python -m repro fig8a --stripes 96 --seeds 3
    python -m repro fig13a --stripes-per-process 10 --seeds 2
    python -m repro fig14 --runs 10
    python -m repro journal verify DIR

Each figure command is one row of ``repro.experiments.artefacts``: it runs
the row's driver at the scale its options ask for and prints the row's
table, the table ``benchmarks/bench_paper.py`` prints at bench scale; the
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
import sys
from typing import Dict, List, Optional, Sequence

from repro import pipeline, recovery
from repro.experiments.artefacts import ARTEFACTS, SEED, SWEEP, arg, at_least
from repro.experiments.runner import format_table
from repro.journal.checkpoint import list_checkpoints
from repro.journal.verify import verify_journal
from repro.journal.wal import list_segments, scan_journal
from repro.parallel import SweepExecutor


# ----------------------------------------------------------------------
# Experiment handlers
# ----------------------------------------------------------------------
def cmd_artefact(artefact, args) -> None:
    """Run one paper artefact at the scale ``args`` asks for; print it."""
    kwargs = artefact.scale(args)
    sweep = "workers" in args
    if sweep:
        kwargs["executor"] = SweepExecutor(workers=args.workers or 0)
    print(artefact.format(artefact.run(**kwargs)))
    if sweep and args.workers is not None:
        print(f"[sweep] {kwargs['executor'].last_report.summary()}")


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
def _positive_finite(text: str) -> float:
    """argparse ``type``: a float that is finite and greater than zero."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError("must be positive and finite")
    return value


_positive_finite.__name__ = "float"

JOURNAL_DIR = arg("directory", help="journal directory")

# (name, handler, help, arguments), in ``repro list`` order: the paper
# artefacts, then the fault and pipeline drills.
EXPERIMENTS = tuple(
    (a.command, functools.partial(cmd_artefact, a), a.title, a.options)
    for a in ARTEFACTS
) + (
    ("chaos", cmd_chaos, cmd_chaos.__doc__, [
        SEED,
        arg("--stripes", type=at_least(1), default=12),
        arg("--flaps", type=at_least(0), default=4),
        arg("--rack-outages", type=at_least(0), default=1),
        arg("--corruptions", type=at_least(0), default=3),
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
        arg("--stripes", type=at_least(1), default=6),
        arg("--head-to-head", action="store_true",
            help="run the rr/ear/recovery x code comparison grid instead of "
            "one policy"),
        arg("--seeds", type=at_least(1), default=1,
            help="with --head-to-head: seeds per grid cell"),
    ] + SWEEP),
    ("pipeline", cmd_pipeline, cmd_pipeline.__doc__, [
        arg("--strategy", default="pipeline",
            choices=["rr", "ear", "pipeline"],
            help="contender for a single run: rr/ear download-and-encode or "
            "the pipelined strategy (default: pipeline)"),
        SEED,
        arg("--stripes", type=at_least(1), default=6),
        arg("--chunks", type=at_least(1), default=4,
            help="chunks each block is streamed in along the pipeline"),
        arg("--no-disturb", action="store_true",
            help="skip the mid-encode node failure (measure the clean wave)"),
        arg("--head-to-head", action="store_true",
            help="run the rr/ear/pipeline comparison grid instead of one "
            "strategy"),
        arg("--json", action="store_true",
            help="emit raw trial results as JSON instead of a table"),
        arg("--seeds", type=at_least(1), default=1,
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
