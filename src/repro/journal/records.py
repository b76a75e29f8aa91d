"""Typed, frozen journal records — the write-ahead log's vocabulary.

Every metadata mutation the NameNode-side stores can perform has exactly
one record type here.  Records are immutable dataclasses whose fields are
restricted to JSON-serializable types (ints, strings, bools, optionals
and tuples thereof — asserted for every ``RECORD_TYPES`` class by
``tests/journal/test_records.py``),
so a record round-trips losslessly through the on-disk envelope and two
encodes of the same record are byte-identical.  No live change builds
one (:func:`record_text` formats a line from the class and its field
tuple); decoding, ``repro journal verify`` and the tests do.

A logical event is one record: a block write is one
:class:`AllocateBlock` (the block, its stripe membership and its
replicas) and a stripe encode one :class:`EncodeStripe` (parity minted,
redundant replicas deleted, the stripe flipped to encoded).  A crash
lands before or after such a record, never inside it, so no prefix of
the log leaves a stripe observably half-committed.

Each record type is also one metadata change: a validity test
``Record.check(owner, fields)`` and a transition ``Record.apply(owner,
fields)``, defined by the class that owns the state (:func:`owns`).
:func:`commit` is the live path and
:class:`~repro.journal.recovery.Replayer` the replay path over that one
pair, so replay cannot drift from the live change.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import ClassVar, Dict, Optional, Tuple, Type


@dataclass(frozen=True)
class JournalRecord:
    """Base class for all journal records.

    Subclasses set ``record_type`` (the stable on-disk type tag) and
    ``owner`` (the :class:`~repro.journal.state.Stores` field whose class
    defines the type's transition; empty for the bundle itself), and are
    frozen dataclasses with JSON-serializable fields only.  :func:`owns`
    gives each its ``check`` and ``apply``.
    """

    record_type: ClassVar[str] = ""
    owner: ClassVar[str] = ""


class Present:
    """Validity verdict: the record's effect is already in the stores.

    Replay counts such a record as skipped.  A live caller asking for the
    change again gets ``error`` raised, or a no-op when it is ``None``.
    """

    __slots__ = ("error",)

    def __init__(self, error: Optional[Exception] = None) -> None:
        self.error = error


#: The verdict of a change a live caller may repeat as a no-op.
PRESENT = Present()


def commit(owner, record_class: Type["JournalRecord"], fields: tuple):
    """The live path of one metadata change; returns what it applied.

    ``fields`` is the record's field values in declaration order (one
    tuple: unpacking ``*fields`` into the calls would cost CPython 3.11
    about 0.3 µs per change).  The check answers ``None`` (applies), a
    :class:`Present` (a no-op, or its ``error`` raised) or an exception
    (impossible: raised).  A record that applies is appended to
    ``owner.journal``, when one is attached, and only then applied: a
    crash inside the append leaves the change unapplied, and the entry
    fingerprint sees the state before it.  No record instance is built:
    the journal formats its line straight from ``fields``.
    """
    verdict = record_class.check(owner, fields)
    if verdict is not None:
        if verdict.__class__ is not Present:
            raise verdict
        if verdict.error is not None:
            raise verdict.error
        return None
    journal = owner.journal
    if journal is not None:
        journal.append(record_class, fields)
    return record_class.apply(owner, fields)


def _tupleize(value: object) -> object:
    if isinstance(value, list):
        return tuple(_tupleize(item) for item in value)
    return value


# ----------------------------------------------------------------------
# Block lifecycle
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AllocateBlock(JournalRecord):
    """A data block was written: registered (stamped with its stripe),
    added to that stripe, and placed on ``node_ids`` (the first copy
    primary).  The NameNode's write path, one record per block."""

    record_type: ClassVar[str] = "allocate_block"

    block_id: int
    size: int
    stripe_id: Optional[int]
    node_ids: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "node_ids", tuple(self.node_ids))


@dataclass(frozen=True)
class AddBlock(JournalRecord):
    """A data block was allocated (id, size, kind, optional stripe)."""

    record_type: ClassVar[str] = "add_block"
    owner: ClassVar[str] = "blocks"

    block_id: int
    size: int
    kind: str
    stripe_id: Optional[int] = None


@dataclass(frozen=True)
class PlaceReplica(JournalRecord):
    """One replica of a block was recorded on a node."""

    record_type: ClassVar[str] = "place_replica"
    owner: ClassVar[str] = "blocks"

    block_id: int
    node_id: int
    is_primary: bool = False


@dataclass(frozen=True)
class DeleteReplica(JournalRecord):
    """One replica of a block was deleted from a node."""

    record_type: ClassVar[str] = "delete_replica"
    owner: ClassVar[str] = "blocks"

    block_id: int
    node_id: int


@dataclass(frozen=True)
class Relocate(JournalRecord):
    """A replica moved between nodes (BlockMover / repair relocation)."""

    record_type: ClassVar[str] = "relocate"
    owner: ClassVar[str] = "blocks"

    block_id: int
    src_node: int
    dst_node: int


@dataclass(frozen=True)
class MarkCorrupted(JournalRecord):
    """A replica's checksum no longer matches (bit-rot detected)."""

    record_type: ClassVar[str] = "mark_corrupted"
    owner: ClassVar[str] = "blocks"

    block_id: int
    node_id: int


@dataclass(frozen=True)
class ClearCorrupted(JournalRecord):
    """A previously corrupted replica was rewritten from a good copy."""

    record_type: ClassVar[str] = "clear_corrupted"
    owner: ClassVar[str] = "blocks"

    block_id: int
    node_id: int


# ----------------------------------------------------------------------
# Stripe lifecycle
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NewStripe(JournalRecord):
    """A fresh stripe was opened in the pre-encoding store."""

    record_type: ClassVar[str] = "new_stripe"
    owner: ClassVar[str] = "stripes"

    stripe_id: int
    k: int
    core_rack: Optional[int] = None
    target_racks: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.target_racks is not None:
            object.__setattr__(
                self, "target_racks", tuple(self.target_racks)
            )


@dataclass(frozen=True)
class StripeAddBlock(JournalRecord):
    """A data block joined an open stripe (sealing when it reaches k)."""

    record_type: ClassVar[str] = "stripe_add_block"
    owner: ClassVar[str] = "stripes"

    stripe_id: int
    block_id: int
    seal_when_full: bool = True


@dataclass(frozen=True)
class SealStripe(JournalRecord):
    """A stripe was explicitly sealed (eligible for encoding)."""

    record_type: ClassVar[str] = "seal_stripe"
    owner: ClassVar[str] = "stripes"

    stripe_id: int


@dataclass(frozen=True)
class EncodeStripe(JournalRecord):
    """A sealed stripe was encoded: one parity block minted per
    ``parity_nodes`` entry (ids from the block counter, in order), each
    data block trimmed to its planned ``retained`` copy, and the stripe
    flipped to encoded."""

    record_type: ClassVar[str] = "encode_stripe"

    stripe_id: int
    parity_nodes: Tuple[int, ...]
    parity_size: int
    retained: Tuple[Tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parity_nodes", tuple(self.parity_nodes))
        object.__setattr__(
            self, "retained", tuple(tuple(pair) for pair in self.retained)
        )


# ----------------------------------------------------------------------
# Relocation requests (repair-queue placement-violation backlog)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RelocationRequested(JournalRecord):
    """A repair committed a rack-cap violation; the stripe awaits a move.

    The repair queue journals the request *before* adding the stripe to
    its in-memory backlog, so a crash mid-storm replays the same pending
    relocations instead of silently forgetting the violation.
    """

    record_type: ClassVar[str] = "relocation_requested"

    stripe_id: int


@dataclass(frozen=True)
class RelocationServed(JournalRecord):
    """A pending relocation request left the backlog.

    Written when the mover served the request — or when a transient
    failure deferred it to the next violation scan; either way the
    request is no longer pending, so replay must drop it too.
    """

    record_type: ClassVar[str] = "relocation_served"

    stripe_id: int


# ----------------------------------------------------------------------
# Node liveness (permanent membership changes)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NodeDead(JournalRecord):
    """A node left the cluster permanently (metadata-visible death)."""

    record_type: ClassVar[str] = "node_dead"

    node_id: int


@dataclass(frozen=True)
class NodeAlive(JournalRecord):
    """A previously dead node rejoined the cluster."""

    record_type: ClassVar[str] = "node_alive"

    node_id: int


# ----------------------------------------------------------------------
# File namespace
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FileCreate(JournalRecord):
    """A file name was created in the namespace."""

    record_type: ClassVar[str] = "file_create"
    owner: ClassVar[str] = "namespace"

    name: str


@dataclass(frozen=True)
class FileAppendBlock(JournalRecord):
    """A block was appended to a file."""

    record_type: ClassVar[str] = "file_append_block"
    owner: ClassVar[str] = "namespace"

    name: str
    block_id: int
    size: int


@dataclass(frozen=True)
class FileDelete(JournalRecord):
    """A file was removed from the namespace."""

    record_type: ClassVar[str] = "file_delete"
    owner: ClassVar[str] = "namespace"

    name: str


# ----------------------------------------------------------------------
# Registry and (de)serialization
# ----------------------------------------------------------------------
RECORD_TYPES: Dict[str, Type[JournalRecord]] = {
    cls.record_type: cls
    for cls in (
        AllocateBlock, AddBlock, PlaceReplica, DeleteReplica, Relocate,
        MarkCorrupted, ClearCorrupted,
        NewStripe, StripeAddBlock, SealStripe, EncodeStripe,
        RelocationRequested, RelocationServed,
        NodeDead, NodeAlive,
        FileCreate, FileAppendBlock, FileDelete,
    )
}

def owns(owner: str):
    """Class decorator for the class that owns the state of the record
    types whose ``owner`` is ``owner``: binds each such type's ``check``
    and ``apply`` to the class's ``check_<type>`` and ``apply_<type>``."""
    def bind(owner_class):
        for record_class in RECORD_TYPES.values():
            if record_class.owner == owner:
                tag = record_class.record_type
                record_class.check = getattr(owner_class, "check_" + tag)
                record_class.apply = getattr(owner_class, "apply_" + tag)
        return owner_class
    return bind


#: type tag -> the field names every on-disk ``data`` object of it carries.
RECORD_FIELDS: Dict[str, frozenset] = {
    tag: frozenset(spec.name for spec in fields(cls))
    for tag, cls in RECORD_TYPES.items()
}


def _values_of(names: Tuple[str, ...]):
    get = itemgetter(*names)
    return get if len(names) > 1 else (lambda data: (get(data),))


#: type tag -> the record's ``fields`` tuple (its field values in
#: declaration order) read from an on-disk ``data`` object.
FIELD_VALUES = {
    tag: _values_of(tuple(spec.name for spec in fields(cls)))
    for tag, cls in RECORD_TYPES.items()
}


class UnknownRecordError(ValueError):
    """Raised when decoding a record whose type tag is not registered."""


def _json_value(value: object) -> bytes:
    """One field value as canonical (tight-separator, ASCII-only) JSON."""
    kind = value.__class__
    if kind is int:
        return b"%d" % value
    if kind is str:
        return encode_basestring_ascii(value).encode()
    if kind is tuple:
        return b"[" + b",".join(map(_json_value, value)) + b"]"
    if value is None:
        return b"null"
    if kind is bool:
        return b"true" if value else b"false"
    return json.dumps(value, separators=(",", ":")).encode()


def _text_encoder(cls: Type[JournalRecord]):
    """``encode(seq, fields)`` for ``cls``, compiled once (like a
    dataclass's ``__init__``): one ``%``-template of the sorted-keys
    envelope whose slots read ``fields`` by declaration index, ``int``
    fields as ``%d`` and the rest through :func:`_json_value`."""
    declared = [spec.name for spec in fields(cls)]
    plain = {spec.name: spec.type in ("int", int) for spec in fields(cls)}
    slots, values = [], []
    for name in sorted(declared):
        value = f"fields[{declared.index(name)}]"
        slots.append(f'"{name}":%{"d" if plain[name] else "s"}')
        values.append(value if plain[name] else f"json_value({value})")
    template = (
        f'{{"data":{{{",".join(slots)}}},"seq":%d,'
        f'"type":"{cls.record_type}"}}'
    ).encode()
    return eval(
        f"lambda seq, fields: template % ({', '.join(values)}, seq)",
        {"template": template, "json_value": _json_value},
    )


#: record class -> its ``encode(seq, fields)`` (:func:`_text_encoder`).
_TEXT_ENCODERS = {cls: _text_encoder(cls) for cls in RECORD_TYPES.values()}


def record_text(seq: int, record_class: Type[JournalRecord],
                fields: tuple) -> bytes:
    """The canonical sorted-keys JSON (ASCII bytes) of the envelope at
    ``seq`` of the ``record_class`` record whose field values (declaration
    order) are ``fields``: the append path's one encoder."""
    encode = _TEXT_ENCODERS.get(record_class)
    if encode is None:
        raise UnknownRecordError(
            f"record class {record_class.__name__} is not registered"
        )
    return encode(seq, fields)


def decode_record(payload: Dict[str, object]) -> JournalRecord:
    """Rebuild a record from its envelope payload.

    Raises:
        UnknownRecordError: For unregistered type tags.
        TypeError / ValueError: For malformed field sets.
    """
    type_tag = payload.get("type")
    cls = RECORD_TYPES.get(type_tag)  # type: ignore[arg-type]
    if cls is None:
        raise UnknownRecordError(f"unknown journal record type {type_tag!r}")
    data = payload.get("data")
    if not isinstance(data, dict):
        raise ValueError(f"record {type_tag!r} has no data object")
    kwargs = {str(key): _tupleize(value) for key, value in data.items()}
    return cls(**kwargs)
