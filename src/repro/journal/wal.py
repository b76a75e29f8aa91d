"""The append-only segmented write-ahead log (on-disk format + scanner).

One journal directory holds::

    segment-00000001.wal      # newline-delimited record envelopes
    segment-00000002.wal
    checkpoint-00000042.json  # fsimage-style snapshots (see checkpoint.py)

Each envelope line is ``<json>\\t<crc32 hex>`` where the CRC covers the
JSON bytes and the JSON is the canonical (sorted-keys, tight-separator)
encoding of ``{"seq": n, "type": tag, "data": {...}}``.  Appends go
through an explicit in-memory buffer: a record is *durable* only after
:meth:`JournalWriter.flush`, which is exactly the boundary the crash
drills exercise.  The scanner tolerates a torn or truncated final
record — the signature a crash between write and flush leaves behind —
but reports any mid-log corruption as an error.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.sim.metrics import PERF

SEGMENT_PREFIX = "segment-"
SEGMENT_SUFFIX = ".wal"
_SEGMENT_RE = re.compile(r"^segment-(\d{8})\.wal$")

#: Records per segment before the writer rotates to a fresh file.
DEFAULT_SEGMENT_RECORDS = 1024


class JournalFormatError(ValueError):
    """A structurally invalid line somewhere other than the log's tail."""


def frame_line(text: str) -> str:
    """``text`` (one canonical envelope) plus its CRC field, no newline."""
    return f"{text}\t{zlib.crc32(text.encode('utf-8')):08x}"


def _checked_text(line: bytes) -> bytes:
    """The JSON text of one line, once its CRC field checks out."""
    text, sep, crc_hex = line.rpartition(b"\t")
    if not sep:
        raise JournalFormatError("record line has no CRC field")
    try:
        expected = int(crc_hex, 16)
    except ValueError:
        raise JournalFormatError(
            f"record CRC {crc_hex.decode(errors='replace')!r} is not "
            f"hexadecimal"
        ) from None
    actual = zlib.crc32(text)
    if actual != expected:
        raise JournalFormatError(
            f"record CRC mismatch (stored {crc_hex.decode()}, "
            f"computed {actual:08x})"
        )
    return text


def _envelopes(texts: List[bytes]) -> List[Dict[str, object]]:
    """Parse CRC-checked record texts with a single ``json.loads``."""
    try:
        payloads = json.loads(b"[" + b",".join(texts) + b"]")
    except ValueError as exc:
        raise JournalFormatError(f"record JSON undecodable: {exc}") from None
    if len(payloads) != len(texts) or not all(
        isinstance(payload, dict) and "seq" in payload for payload in payloads
    ):
        raise JournalFormatError("record envelope lacks a seq field")
    return payloads


def decode_line(line: Union[str, bytes]) -> Dict[str, object]:
    """Parse and CRC-check one line.

    Raises:
        JournalFormatError: On a missing CRC field, CRC mismatch, or
            undecodable JSON — the caller decides whether the position
            (tail or mid-log) makes that torn or corrupt.
    """
    if isinstance(line, str):
        line = line.encode("utf-8")
    return _envelopes([_checked_text(line.rstrip(b"\n"))])[0]


def segment_path(directory: str, index: int) -> str:
    """The path of segment ``index`` inside ``directory``."""
    return os.path.join(directory, f"{SEGMENT_PREFIX}{index:08d}{SEGMENT_SUFFIX}")


def list_segments(directory: str) -> List[Tuple[int, str]]:
    """``(index, path)`` of every segment file, in index order."""
    found: List[Tuple[int, str]] = []
    if not os.path.isdir(directory):
        return found
    for name in sorted(os.listdir(directory)):
        match = _SEGMENT_RE.match(name)
        if match:
            found.append((int(match.group(1)), os.path.join(directory, name)))
    return found


class JournalWriter:
    """Appends envelope lines to rotating segment files.

    Args:
        directory: Journal directory (created if missing).
        segment_records: Records per segment before rotation.
        fsync: Whether :meth:`flush` also fsyncs the file descriptor
            (off by default; the tests model durability at flush level).

    A resumed writer (an existing journal directory) always starts a
    *new* segment, so a previous process's possibly-torn tail is never
    appended to.
    """

    def __init__(
        self,
        directory: str,
        segment_records: int = DEFAULT_SEGMENT_RECORDS,
        fsync: bool = False,
    ) -> None:
        if segment_records < 1:
            raise ValueError("segment_records must be positive")
        self.directory = directory
        self.segment_records = segment_records
        self.fsync = fsync
        os.makedirs(directory, exist_ok=True)
        existing = list_segments(directory)
        self._segment_index = (existing[-1][0] + 1) if existing else 1
        self._records_in_segment = 0
        self._buffer: List[str] = []
        self._handle = None

    @property
    def current_segment_path(self) -> str:
        """The path the next flushed record will land in."""
        return segment_path(self.directory, self._segment_index)

    # ------------------------------------------------------------------
    def append(self, line: str) -> None:
        """Buffer one encoded line (durable only after :meth:`flush`)."""
        self._buffer.append(line + "\n")

    def flush(self) -> None:
        """Write every buffered line to disk and make it durable.

        Rotation happens mid-flush the moment a segment fills, so
        ``segment_records`` bounds segment size even when many records
        are flushed in one batch.
        """
        if not self._buffer:
            return
        pending, self._buffer = self._buffer, []
        for text in pending:
            handle = self._ensure_handle()
            handle.write(text)
            self._records_in_segment += 1
            if self._records_in_segment >= self.segment_records:
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
                self._rotate()
        if self._handle is not None:
            self._handle.flush()
            if self.fsync:
                os.fsync(self._handle.fileno())

    def write_torn(self, line: str) -> None:
        """Write a deliberately truncated record (crash-drill helper).

        Flushes any buffered records first, then writes only the first
        half of ``line`` with no trailing newline — the exact artifact a
        crash mid-write leaves.
        """
        self.flush()
        handle = self._ensure_handle()
        handle.write(line[:len(line) // 2])
        handle.flush()

    def close(self) -> None:
        """Flush and release the current segment handle."""
        self.flush()
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # ------------------------------------------------------------------
    def _ensure_handle(self):
        if self._handle is None:
            self._handle = open(
                segment_path(self.directory, self._segment_index),
                "a",
                encoding="utf-8",
            )
        return self._handle

    def _rotate(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._segment_index += 1
        self._records_in_segment = 0
        PERF.bump("journal.segments_rotated")


# ----------------------------------------------------------------------
# Scanning
# ----------------------------------------------------------------------
@dataclass
class ScanResult:
    """Everything a journal scan found.

    Attributes:
        envelopes: Decoded record envelopes in log order (each carries
            ``seq``, ``type`` and ``data``); :func:`scan_journal` keeps
            them, :func:`iter_journal` only yields them.
        torn_tail: Description of a tolerated torn/truncated final
            record, or ``None`` when the log ends cleanly.
        errors: Mid-log structural problems (corrupt CRC, bad JSON,
            out-of-order sequence numbers).  A healthy journal has none.
        segments: ``(index, path, records)`` per scanned segment.
        last_seq: Highest durable sequence number (0 for an empty log).
    """

    envelopes: List[Dict[str, object]] = field(default_factory=list)
    torn_tail: Optional[str] = None
    errors: List[str] = field(default_factory=list)
    segments: List[Tuple[int, str, int]] = field(default_factory=list)
    last_seq: int = 0


def _first_seq(path: str) -> Optional[int]:
    """``seq`` of a segment's first record (``None`` when unreadable)."""
    with open(path, "rb") as handle:
        first = handle.readline()
    try:
        return int(decode_line(first)["seq"])  # type: ignore[call-overload]
    except (TypeError, ValueError):  # JournalFormatError is a ValueError
        return None


def uncovered_segments(
    directory: str, covered_seq: int
) -> List[Tuple[int, str]]:
    """The segments that may hold a record with ``seq > covered_seq``.

    A segment is wholly covered when the *next* segment's first record
    has ``seq <= covered_seq + 1``, so recovery and pruning read one line
    per segment, newest first, and never open the covered history (the
    last segment is never provably covered).
    """
    segments = list_segments(directory)
    for position in range(len(segments) - 1, 0, -1):
        first = _first_seq(segments[position][1])
        if first is not None and first <= covered_seq + 1:
            return segments[position:]
    return segments


def iter_journal(
    directory: str, result: ScanResult, after_seq: int = 0
) -> Iterator[Dict[str, object]]:
    """Yield the envelopes of every segment not covered by ``after_seq``
    (the first of them may still start at or below it); ``result``
    collects everything else.

    Tolerates only a torn final record: a line that fails CRC or JSON
    checks is a *torn tail* when it is the last line of the last segment
    (a crash between write and flush); anywhere else it is an error.
    Sequence numbers must strictly increase across the scanned segments.
    """
    segments = uncovered_segments(directory, after_seq)
    for position, (index, path) in enumerate(segments):
        name = os.path.basename(path)
        with open(path, "rb") as handle:
            lines = handle.read().splitlines()
        numbered = [
            (line_no, line)
            for line_no, line in enumerate(lines, start=1) if line.strip()
        ]
        try:  # every CRC, then one parse for the whole segment
            decoded = list(zip(
                (line_no for line_no, _line in numbered),
                _envelopes([_checked_text(line) for _no, line in numbered]),
            ))
        except JournalFormatError:  # line by line, to name the bad one
            decoded = []
            for line_no, line in numbered:
                try:
                    decoded.append((line_no, decode_line(line)))
                except JournalFormatError as exc:
                    problem = f"{name}:{line_no}: {exc}"
                    if position == len(segments) - 1 and line_no == len(lines):
                        result.torn_tail = problem
                    else:
                        result.errors.append(problem)
        count = 0
        for line_no, payload in decoded:
            seq = int(payload["seq"])  # type: ignore[call-overload]
            if seq <= result.last_seq:
                result.errors.append(
                    f"{name}:{line_no}: sequence number {seq} does not "
                    f"increase (previous {result.last_seq})"
                )
                continue
            result.last_seq = seq
            count += 1
            yield payload
        result.segments.append((index, path, count))


def scan_journal(directory: str) -> ScanResult:
    """A full structural scan with every envelope kept (tools and tests)."""
    result = ScanResult()
    result.envelopes.extend(iter_journal(directory, result))
    return result
