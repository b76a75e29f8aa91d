"""The journal's line format spelled out the slow, obvious way.

``encode_line(seq, encode_record(r))`` builds a record's on-disk line
with ``json.dumps``; the append path's one-pass
``frame_line(record_text(seq, type(r), field_values(r)))`` must match it
byte for byte.
"""

import json
from dataclasses import fields
from typing import Dict

from repro.journal.records import JournalRecord
from repro.journal.wal import frame_line


def _jsonify(value: object) -> object:
    if isinstance(value, tuple):
        return [_jsonify(item) for item in value]
    return value


def encode_record(record: JournalRecord) -> Dict[str, object]:
    """``record`` as its on-disk envelope payload (type tag + fields)."""
    data = {
        spec.name: _jsonify(getattr(record, spec.name))
        for spec in fields(record)
    }
    return {"type": type(record).record_type, "data": data}


def field_values(record: JournalRecord) -> tuple:
    """``record``'s field values in declaration order: the ``fields``
    tuple :func:`~repro.journal.records.commit` hands the journal."""
    return tuple(getattr(record, spec.name) for spec in fields(record))


def encode_line(seq: int, envelope: Dict[str, object]) -> bytes:
    """One record as its on-disk line (canonical JSON, CRC, newline)."""
    payload = dict(envelope)
    payload["seq"] = seq
    return frame_line(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    )
