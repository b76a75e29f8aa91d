"""fsimage-style checkpoints: CRC'd snapshots of the metadata state.

A checkpoint file ``checkpoint-<seq>.json`` freezes the canonical state
dict (see :mod:`repro.journal.state`) as of journal sequence number
``seq``.  Recovery loads the newest *valid* checkpoint and replays only
the log records with ``seq`` greater than the checkpoint's — the same
contract as HDFS's fsimage + edit-log tail.  A checkpoint that fails its
CRC is skipped (recovery falls back to the next older one, or to a full
replay from sequence 1), so a torn checkpoint write can never poison
recovery.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.journal.wal import list_segments, uncovered_segments

CHECKPOINT_PREFIX = "checkpoint-"
CHECKPOINT_SUFFIX = ".json"
_CHECKPOINT_RE = re.compile(r"^checkpoint-(\d{8})\.json$")
#: A checkpoint file as :func:`write_checkpoint` lays it out.
_FILE_RE = re.compile(rb'\{"payload": (.*), "crc": "([0-9a-f]{8})"\}\n', re.S)


class CheckpointError(ValueError):
    """A checkpoint file is structurally invalid (bad JSON or CRC)."""


def checkpoint_path(directory: str, last_seq: int) -> str:
    """The path of the checkpoint covering sequence numbers <= last_seq."""
    return os.path.join(
        directory, f"{CHECKPOINT_PREFIX}{last_seq:08d}{CHECKPOINT_SUFFIX}"
    )


def list_checkpoints(directory: str) -> List[Tuple[int, str]]:
    """``(last_seq, path)`` of every checkpoint file, oldest first."""
    found: List[Tuple[int, str]] = []
    if not os.path.isdir(directory):
        return found
    for name in sorted(os.listdir(directory)):
        match = _CHECKPOINT_RE.match(name)
        if match:
            found.append((int(match.group(1)), os.path.join(directory, name)))
    return found


def write_checkpoint(
    directory: str,
    last_seq: int,
    state: Dict[str, object],
    meta: Optional[Dict[str, object]] = None,
) -> str:
    """Write a checkpoint of ``state`` as of ``last_seq``; return its path.

    The file holds ``{"payload": ..., "crc": ...}`` where the CRC covers
    the canonical encoding of the payload, so load-time validation can
    detect any torn or bit-rotted snapshot.
    """
    payload: Dict[str, object] = {
        "version": 1,
        "last_seq": last_seq,
        "state": state,
        "meta": dict(meta) if meta else {},
    }
    text = json.dumps(  # a captured state holds no cycles to check for
        payload, sort_keys=True, separators=(",", ":"), check_circular=False
    )
    crc = zlib.crc32(text.encode("utf-8"))
    os.makedirs(directory, exist_ok=True)
    path = checkpoint_path(directory, last_seq)
    tmp_path = path + ".tmp"
    try:
        with open(tmp_path, "w", encoding="utf-8") as handle:
            # The canonical text is the payload: serialise it once.
            handle.write(f'{{"payload": {text}, "crc": "{crc:08x}"}}\n')
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
    return path


@dataclass
class CheckpointData:
    """One successfully loaded and CRC-verified checkpoint."""

    last_seq: int
    state: Dict[str, object]
    meta: Dict[str, object]
    path: str


def load_checkpoint(path: str) -> CheckpointData:
    """Load and CRC-verify one checkpoint file: the CRC over the payload
    bytes exactly as written, then one parse (so a payload re-serialised
    even into equal JSON is rejected).

    Raises:
        CheckpointError: On a file not in :func:`write_checkpoint`'s
            layout, a CRC mismatch, or an unparseable payload.
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise CheckpointError(f"{path}: unreadable checkpoint: {exc}") from None
    match = _FILE_RE.fullmatch(blob)
    if match is None:
        raise CheckpointError(
            f"{path}: not a whole checkpoint file (payload, then its crc)"
        )
    text, crc_hex = match.groups()
    actual = zlib.crc32(text)
    if actual != int(crc_hex, 16):
        raise CheckpointError(
            f"{path}: checkpoint CRC mismatch "
            f"(stored {crc_hex.decode()}, computed {actual:08x})"
        )
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise CheckpointError(f"{path}: unreadable checkpoint: {exc}") from None
    if not isinstance(payload, dict) or "last_seq" not in payload:
        raise CheckpointError(f"{path}: checkpoint payload lacks last_seq")
    return CheckpointData(
        last_seq=int(payload["last_seq"]),
        state=payload.get("state") or {},
        meta=payload.get("meta") or {},
        path=path,
    )


def load_latest_checkpoint(
    directory: str,
) -> Tuple[Optional[CheckpointData], List[str]]:
    """The newest valid checkpoint plus warnings about any skipped ones.

    Invalid checkpoints are skipped newest-first until a valid one is
    found; recovery then replays the log tail after it.
    """
    warnings: List[str] = []
    for last_seq, path in reversed(list_checkpoints(directory)):
        try:
            return load_checkpoint(path), warnings
        except CheckpointError as exc:
            warnings.append(str(exc))
    return None, warnings


def drop_old_checkpoints(directory: str) -> None:
    """Keep the newest two checkpoints: a torn newest one then still
    leaves recovery a recent one to fall back to."""
    for _last_seq, path in list_checkpoints(directory)[:-2]:
        os.remove(path)


def prune_segments(
    directory: str, upto_seq: int, keep: Tuple[str, ...] = ()
) -> List[str]:
    """Delete segments wholly covered by a checkpoint at ``upto_seq``.

    Uses recovery's own coverage rule (:func:`uncovered_segments`), so a
    segment is removed exactly when recovery from that checkpoint would
    never open it, and its path is not in ``keep`` (the writer's active
    segment).  Returns the paths removed.
    """
    removed: List[str] = []
    protected = {os.path.abspath(path) for path in keep}
    protected.update(
        os.path.abspath(path)
        for _index, path in uncovered_segments(directory, upto_seq)
    )
    for _index, path in list_segments(directory):
        if os.path.abspath(path) not in protected:
            os.remove(path)
            removed.append(path)
    return removed
