"""Structural verification of a journal directory (``repro journal verify``).

Checks every layer an operator cares about before trusting a log:

* segment scan — per-record CRCs, strictly increasing sequence numbers,
  mid-log corruption (errors) vs a torn final record (tolerated);
* record decode — every envelope must decode to a registered record type
  with a well-formed field set;
* checkpoints — every checkpoint file must pass its CRC, and its
  ``last_seq`` must not exceed the log's durable tail… unless the log
  was pruned beneath it, which the scan reveals;
* replay — a log still on disk from record 1 must replay with no record
  its validity test calls impossible, and each checkpoint must
  fingerprint-equal a replay of exactly records ``1..last_seq``: one
  written after record *S* was journaled but before its caller applied
  it claims *S* without *S*'s effect.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.cluster.topology import ClusterTopology
from repro.journal import records as rec
from repro.journal.checkpoint import (
    CheckpointData,
    CheckpointError,
    list_checkpoints,
    load_checkpoint,
)
from repro.journal.recovery import Replayer
from repro.journal.state import fingerprint_of, state_fingerprint
from repro.journal.wal import scan_journal


@dataclass
class VerifyReport:
    """Outcome of one ``verify_journal`` pass."""

    directory: str
    records: int = 0
    segments: int = 0
    checkpoints: int = 0
    torn_tail: str = ""
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the journal has no errors."""
        return not self.errors

    def summary(self) -> str:
        """One human line per fact, suitable for CLI output."""
        lines = [
            f"journal: {self.directory}",
            f"segments: {self.segments}",
            f"records: {self.records}",
            f"checkpoints: {self.checkpoints}",
        ]
        if self.torn_tail:
            lines.append(f"torn tail (tolerated): {self.torn_tail}")
        for error in self.errors:
            lines.append(f"ERROR: {error}")
        lines.append("status: " + ("OK" if self.ok else "CORRUPT"))
        return "\n".join(lines)


def verify_journal(directory: str) -> VerifyReport:
    """Run every structural check against a journal directory."""
    report = VerifyReport(directory=directory)
    if not os.path.isdir(directory):
        report.errors.append(f"not a directory: {directory}")
        return report

    scan = scan_journal(directory)
    report.segments = len(scan.segments)
    report.records = len(scan.envelopes)
    report.errors.extend(scan.errors)
    if scan.torn_tail:
        report.torn_tail = scan.torn_tail

    for envelope in scan.envelopes:
        try:
            rec.decode_record(envelope)
        except (rec.UnknownRecordError, TypeError, ValueError) as exc:
            report.errors.append(
                f"seq {envelope['seq']}: undecodable record: {exc}"
            )

    last_seq = scan.last_seq
    loaded: List[CheckpointData] = []
    for checkpoint_seq, path in list_checkpoints(directory):
        try:
            data = load_checkpoint(path)
        except CheckpointError as exc:
            report.errors.append(str(exc))
            continue
        report.checkpoints += 1
        if scan.envelopes and data.last_seq > last_seq:
            report.errors.append(
                f"{os.path.basename(path)}: checkpoint covers seq "
                f"{data.last_seq} but the log's durable tail is {last_seq}"
            )
        else:
            loaded.append(data)
    if (not report.errors and scan.envelopes
            and scan.envelopes[0]["seq"] == 1):
        try:
            _check_replay(report, scan.envelopes, loaded)
        except (KeyError, TypeError, ValueError) as exc:
            report.errors.append(f"replay: the log does not replay: {exc!r}")
    return report


def _check_replay(
    report: VerifyReport,
    envelopes: List[Dict[str, Any]],
    checkpoints: List[CheckpointData],
) -> None:
    """Replay the log from record 1, comparing at each checkpoint's seq."""
    # The block store only asks its topology which node ids exist and the
    # fingerprint holds no topology, so one rack wide enough for every
    # node a replica was ever put on stands in.
    widest = max(
        max(data.get("node_id", 0), data.get("dst_node", 0),
            *data.get("node_ids", ()), *data.get("parity_nodes", ()))
        for data in (envelope["data"] for envelope in envelopes)
    )
    topology = ClusterTopology(nodes_per_rack=widest + 1, num_racks=1)
    due = {data.last_seq: data for data in checkpoints}
    replayer = Replayer(None, topology)
    errors = replayer.stats.errors
    for envelope in envelopes:
        replayer.apply(envelope)
        data = due.pop(envelope["seq"], None)
        if data is None:
            continue
        if fingerprint_of(data.state) != state_fingerprint(replayer.stores):
            report.errors.append(
                f"{os.path.basename(data.path)}: state differs from a "
                f"replay of records 1..{data.last_seq}"
            )
    report.errors.extend(f"replay: {error}" for error in errors)
