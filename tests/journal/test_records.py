"""Typed journal records: registry coverage, JSON round-trips, immutability."""

import dataclasses
import types
import typing

import pytest

from repro.journal import records as rec
from repro.journal.wal import frame_line
from tests.journal.reference_codec import (
    encode_line,
    encode_record,
    field_values,
)

#: One exemplar instance per record type; the registry-coverage test
#: guarantees this table cannot silently fall behind new record types.
SAMPLES = [
    rec.AllocateBlock(block_id=3, size=1024, stripe_id=1, node_ids=(5, 9, 10)),
    rec.AddBlock(block_id=3, size=1024, kind="data", stripe_id=None),
    rec.PlaceReplica(block_id=3, node_id=5, is_primary=True),
    rec.DeleteReplica(block_id=3, node_id=5),
    rec.Relocate(block_id=3, src_node=5, dst_node=9),
    rec.MarkCorrupted(block_id=3, node_id=5),
    rec.ClearCorrupted(block_id=3, node_id=5),
    rec.NewStripe(stripe_id=1, k=4, core_rack=2, target_racks=(0, 1, 3)),
    rec.StripeAddBlock(stripe_id=1, block_id=3, seal_when_full=True),
    rec.SealStripe(stripe_id=1),
    rec.EncodeStripe(
        stripe_id=1, parity_nodes=(7, 8), parity_size=1024,
        retained=((3, 5), (4, 9)),
    ),
    rec.RelocationRequested(stripe_id=1),
    rec.RelocationServed(stripe_id=1),
    rec.NodeDead(node_id=5),
    rec.NodeAlive(node_id=5),
    rec.FileCreate(name="/a/b"),
    rec.FileAppendBlock(name="/a/b", block_id=3, size=1024),
    rec.FileDelete(name="/a/b"),
]

#: Values the templated encoder must spell exactly like ``json.dumps``:
#: ``false``/``null``, empty and nested tuples, a name needing escapes.
EDGE_CASES = [
    rec.PlaceReplica(block_id=3, node_id=5, is_primary=False),
    rec.NewStripe(stripe_id=1, k=4, core_rack=None, target_racks=None),
    rec.NewStripe(stripe_id=1, k=4, core_rack=0, target_racks=()),
    rec.AllocateBlock(block_id=0, size=1, stripe_id=None, node_ids=()),
    rec.EncodeStripe(
        stripe_id=0, parity_nodes=(), parity_size=1, retained=(),
    ),
    rec.FileCreate(name='/a "q"\\ \n\t\x7f \u00e9 \u2603 \U0001f600 %s %d'),
    rec.FileAppendBlock(name="", block_id=-1, size=10**20),
]


def test_samples_cover_the_whole_registry():
    assert sorted({s.record_type for s in SAMPLES}) == sorted(rec.RECORD_TYPES)


@pytest.mark.parametrize(
    "record", SAMPLES, ids=[s.record_type for s in SAMPLES]
)
def test_encode_decode_identity(record):
    envelope = encode_record(record)
    assert envelope["type"] == record.record_type
    decoded = rec.decode_record(envelope)
    assert decoded == record
    assert type(decoded) is type(record)


@pytest.mark.parametrize(
    "record", SAMPLES + EDGE_CASES, ids=lambda record: record.record_type
)
def test_templated_line_equals_the_reference_encoding(record):
    """The append path's one-pass encoder writes the very bytes the
    dict + sorted-keys ``json.dumps`` reference does."""
    for seq in (1, 81194):
        text = rec.record_text(seq, type(record), field_values(record))
        assert frame_line(text) == encode_line(seq, encode_record(record))


def test_unregistered_record_class_cannot_be_journaled():
    @dataclasses.dataclass(frozen=True)
    class Rogue(rec.JournalRecord):
        record_type = "node_dead"  # a registered tag, the wrong class
        node_id: int = 0

    with pytest.raises(rec.UnknownRecordError):
        rec.record_text(1, Rogue, (0,))


@pytest.mark.parametrize(
    "record", SAMPLES, ids=[s.record_type for s in SAMPLES]
)
def test_records_are_frozen(record):
    field = dataclasses.fields(record)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, field, None)


JSON_SCALARS = (int, str, bool, float, type(None))


def json_shaped(hint) -> bool:
    """Built only from JSON scalars, ``Optional[...]`` and ``Tuple[...]``:
    the shapes the canonical-JSON envelope gives back unchanged."""
    if hint in JSON_SCALARS:
        return True
    origin = typing.get_origin(hint)
    return origin in (typing.Union, types.UnionType, tuple) and all(
        json_shaped(arg) for arg in typing.get_args(hint) if arg is not Ellipsis
    )


@pytest.mark.parametrize("cls", rec.RECORD_TYPES.values(), ids=rec.RECORD_TYPES)
def test_record_types_are_frozen_json_shaped_dataclasses(cls):
    """An appended record must not change afterwards, and replay must see
    the types that were applied (a dict or list field would not survive)."""
    assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen
    hints = typing.get_type_hints(cls)
    for field in dataclasses.fields(cls):
        assert json_shaped(hints[field.name]), (field.name, hints[field.name])


def test_payload_survives_json(tmp_path):
    import json

    for record in SAMPLES:
        blob = json.dumps(encode_record(record), sort_keys=True)
        assert rec.decode_record(json.loads(blob)) == record


def test_tuple_fields_come_back_as_tuples():
    envelope = encode_record(
        rec.EncodeStripe(
            stripe_id=1, parity_nodes=(7, 8), parity_size=10,
            retained=((3, 5),),
        )
    )
    assert envelope["data"]["parity_nodes"] == [7, 8]  # JSON-side lists
    decoded = rec.decode_record(envelope)
    assert decoded.parity_nodes == (7, 8)
    assert decoded.retained == ((3, 5),)


def test_unknown_type_rejected():
    with pytest.raises(rec.UnknownRecordError):
        rec.decode_record({"type": "warp_core_breach", "data": {}})


def test_unknown_field_rejected():
    with pytest.raises(TypeError):
        rec.decode_record({"type": "node_dead", "data": {"node_id": 1, "x": 2}})
