"""``repro journal`` — operator tooling for journal directories.

Three subcommands:

* ``dump``   — print every record (seq, type, fields) in log order;
* ``verify`` — run the structural checks and exit non-zero on errors;
* ``stats``  — record/segment/checkpoint counts, byte sizes, and a
  per-record-type histogram.

Run via ``python -m repro.cli journal dump|verify|stats DIR``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Optional

from repro.journal.checkpoint import list_checkpoints
from repro.journal.verify import verify_journal
from repro.journal.wal import list_segments, scan_journal


def add_journal_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the journal subcommands to an argparse parser."""
    sub = parser.add_subparsers(dest="journal_command", required=True)

    dump = sub.add_parser("dump", help="print every record in log order")
    dump.add_argument("directory", help="journal directory")
    dump.add_argument(
        "--json", action="store_true", dest="as_json",
        help="one JSON object per line instead of aligned text",
    )
    dump.add_argument(
        "--type", dest="type_filter", default=None,
        help="only records of this type tag (e.g. parity_add)",
    )

    verify = sub.add_parser(
        "verify", help="structural checks; non-zero exit on errors"
    )
    verify.add_argument("directory", help="journal directory")

    stats = sub.add_parser("stats", help="counts, sizes, type histogram")
    stats.add_argument("directory", help="journal directory")
    stats.add_argument(
        "--json", action="store_true", dest="as_json",
        help="machine-readable JSON output",
    )


def cmd_journal(args: argparse.Namespace) -> int:
    """Dispatch a parsed ``repro journal ...`` invocation."""
    try:
        if args.journal_command == "dump":
            return _cmd_dump(args.directory, args.as_json, args.type_filter)
        if args.journal_command == "verify":
            return _cmd_verify(args.directory)
        return _cmd_stats(args.directory, args.as_json)
    except BrokenPipeError:  # downstream pager/head closed the pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _cmd_dump(
    directory: str, as_json: bool, type_filter: Optional[str]
) -> int:
    scan = scan_journal(directory)
    for envelope in scan.envelopes:
        type_tag = envelope.get("type")
        if type_filter is not None and type_tag != type_filter:
            continue
        if as_json:
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


def _cmd_verify(directory: str) -> int:
    report = verify_journal(directory)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_stats(directory: str, as_json: bool) -> int:
    scan = scan_journal(directory)
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
    if as_json:
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

