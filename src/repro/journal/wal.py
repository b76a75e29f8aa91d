"""The append-only segmented write-ahead log (on-disk format + scanner).

One journal directory holds::

    segment-00000001.wal      # newline-delimited record envelopes
    segment-00000002.wal
    checkpoint-00000042.json  # fsimage-style snapshots (see checkpoint.py)

Each envelope line is ``<json>\\t<crc32 hex>`` where the CRC covers the
JSON bytes and the JSON is the canonical (sorted-keys, tight-separator)
encoding of ``{"seq": n, "type": tag, "data": {...}}``.  The writer keeps
no buffer: :meth:`JournalWriter.write` hands each framed line to the
kernel in one ``write`` on an unbuffered file, so a record is on disk
when the call returns (and fsynced too when the writer was asked to).
The scanner tolerates a torn or truncated final record — the signature
a crash mid-write leaves behind — but reports any mid-log corruption as
an error.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.sim.metrics import PERF

SEGMENT_PREFIX = "segment-"
SEGMENT_SUFFIX = ".wal"
_SEGMENT_RE = re.compile(r"^segment-(\d{8})\.wal$")

#: Records per segment before the writer rotates to a fresh file.
DEFAULT_SEGMENT_RECORDS = 1024


class JournalFormatError(ValueError):
    """A structurally invalid line somewhere other than the log's tail."""


def frame_line(text: bytes) -> bytes:
    """The on-disk line of ``text`` (one canonical envelope): the text, a
    tab, its CRC in hex and the newline."""
    return b"%s\t%08x\n" % (text, zlib.crc32(text))


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


def decode_line(line: bytes) -> Dict[str, object]:
    """Parse and CRC-check one line.

    Raises:
        JournalFormatError: On a missing CRC field, CRC mismatch, or
            undecodable JSON — the caller decides whether the position
            (tail or mid-log) makes that torn or corrupt.
    """
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
    """Writes framed lines to rotating segment files, one ``write`` each.

    Args:
        directory: Journal directory (created if missing).
        segment_records: Records per segment before rotation.
        fsync: Whether every record is also fsynced before :meth:`write`
            returns (off by default; the tests model durability as the
            line reaching the kernel).

    A resumed writer (an existing journal directory) always starts a
    *new* segment, so a previous process's possibly-torn tail is never
    appended to.  A writer that is never closed releases its segment's
    descriptor when it is collected.
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
        self._file = None

    @property
    def current_segment_path(self) -> str:
        """The path the next record will land in."""
        return segment_path(self.directory, self._segment_index)

    # ------------------------------------------------------------------
    def write(self, line: bytes) -> None:
        """Write one framed line (:func:`frame_line`); it is on disk when
        this returns.  The segment rotates once it holds
        ``segment_records`` records."""
        file = self._file or self._open()
        file.write(line)
        if self.fsync:
            os.fsync(file.fileno())
        self._records_in_segment += 1
        if self._records_in_segment >= self.segment_records:
            self._rotate()

    def sync(self) -> None:
        """fsync the open segment when the writer was asked to."""
        if self.fsync and self._file is not None:
            os.fsync(self._file.fileno())

    def write_torn(self, line: bytes) -> None:
        """Write a deliberately truncated record (crash-drill helper):
        the first half of ``line`` without its newline, the exact
        artifact a crash mid-write leaves."""
        (self._file or self._open()).write(line[:(len(line) - 1) // 2])

    def close(self) -> None:
        """Release the current segment's descriptor."""
        if self._file is not None:
            self._file.close()
            self._file = None

    # ------------------------------------------------------------------
    def _open(self):
        self._file = open(self.current_segment_path, "ab", buffering=0)
        return self._file

    def _rotate(self) -> None:
        self.close()
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
    (a crash mid-write); anywhere else it is an error.
    Sequence numbers must strictly increase across the scanned segments.
    """
    segments = uncovered_segments(directory, after_seq)
    for position, (index, path) in enumerate(segments):
        name = os.path.basename(path)
        with open(path, "rb") as handle:
            lines = handle.read().splitlines()
        try:  # every CRC, then one parse for the whole segment
            decoded = enumerate(
                _envelopes([_checked_text(line) for line in lines]), start=1
            )
        except JournalFormatError:  # line by line, to name the bad one
            decoded = []  # (a blank line, which has no CRC, lands here too)
            for line_no, line in enumerate(lines, start=1):
                if not line.strip():
                    continue
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
