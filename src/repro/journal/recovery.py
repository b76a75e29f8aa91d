"""Crash-consistent recovery: checkpoint + log-tail replay.

``recover()`` rebuilds the NameNode-side metadata from a journal
directory the way a restarted NameNode would: load the newest valid
checkpoint (skipping any that fail their CRC), then replay every durable
log record after it.  Replay is *idempotent* — a record whose effect is
already present (because the checkpoint captured it, or because a
previous recovery attempt half-ran) is skipped, not re-applied — and the
torn tail a mid-write crash leaves behind is discarded by the scanner.

A stripe commit is one record
(:class:`~repro.journal.records.EncodeStripe`): parity bytes are
uploaded *before* it is appended (see ``StripeEncoder._star_attempt``
step ordering), and a crash falls before or after it, so every durable
prefix replays to a state the live process was in and none leaves a
stripe observably half-committed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.stripe import PreEncodingStore, StripeState
from repro.journal import records as rec
from repro.journal.checkpoint import load_latest_checkpoint
from repro.journal.journal import MetadataJournal
from repro.journal.state import Stores, restore_state, state_fingerprint
from repro.journal.wal import ScanResult, iter_journal
from repro.sim.metrics import PERF

@dataclass
class RecoveryStats:
    """What one recovery pass did.

    Attributes:
        checkpoint_seq: Sequence number of the checkpoint used (0 when
            recovery replayed from an empty state).
        last_seq: Highest durable sequence number replayed.
        replayed_ops: Records whose effects were applied.
        skipped_ops: Records skipped because their effect was already
            present (idempotent replay).
        torn_tail: Scanner description of a tolerated torn final record.
        errors: Structural log errors plus replay impossibilities
            (a healthy journal produces none).
    """

    checkpoint_seq: int = 0
    last_seq: int = 0
    replayed_ops: int = 0
    skipped_ops: int = 0
    torn_tail: Optional[str] = None
    errors: List[str] = field(default_factory=list)


@dataclass
class RecoveredState:
    """The rebuilt stores plus the stats of the recovery pass."""

    directory: str
    stores: Stores
    stats: RecoveryStats

    def fingerprint(self) -> str:
        """``state_fingerprint()`` of the recovered metadata."""
        return state_fingerprint(self.stores)

    def reopen_journal(self, **kwargs) -> MetadataJournal:
        """A fresh journal resuming this directory, stores attached.

        The writer starts a new segment and sequence numbers continue
        after the durable tail, so post-recovery mutations journal
        seamlessly onto the same log.
        """
        stores = self.stores
        journal = MetadataJournal(self.directory, **kwargs)
        journal.attach(stores.blocks, stores.stripes, stores.namespace)
        journal.stores.dead_nodes = set(stores.dead_nodes)
        journal.stores.pending_relocations = list(stores.pending_relocations)
        return journal


class Replayer:
    """Applies journal envelopes to the rebuilding stores, idempotently.

    Each envelope's ``data`` goes straight to its record type's validity
    test and transition on the owning store — the pair every live
    mutator runs too (:func:`~repro.journal.records.commit`); no record
    instance is built.
    """

    def __init__(self, state: Optional[Dict[str, object]], topology,
                 k: Optional[int] = None) -> None:
        """Start from a checkpointed ``state`` (``None``: empty stores,
        with a pre-encoding store only when ``k`` is given)."""
        self.stores = restore_state(state or {}, topology)
        if state is None and k is not None:
            self.stores.stripes = PreEncodingStore(k)
        self.stats = RecoveryStats()

    def apply(self, envelope: Dict[str, object]) -> None:
        """Replay one envelope: applied, skipped as already present, or
        reported as impossible in ``stats.errors``."""
        seq = int(envelope["seq"])  # type: ignore[call-overload]
        type_tag, data = envelope.get("type"), envelope.get("data")
        names = rec.RECORD_FIELDS.get(type_tag)  # type: ignore[arg-type]
        if names is None:
            return self._error(f"seq {seq}", f"undecodable record: unknown "
                                             f"journal record type {type_tag!r}")
        if not isinstance(data, dict) or data.keys() != names:
            return self._error(f"seq {seq}", f"undecodable record: {type_tag} "
                                             f"data must carry exactly "
                                             f"{sorted(names)}")
        if type_tag == "new_stripe" and self.stores.stripes is None:
            self.stores.stripes = PreEncodingStore(data["k"])
        record_class = rec.RECORD_TYPES[type_tag]
        owner = self.stores
        if record_class.owner:
            owner = getattr(owner, record_class.owner)
            if owner is None:
                return self._error(f"seq {seq}", f"{type_tag} with no "
                                                 f"{record_class.owner} store")
        values = rec.FIELD_VALUES[type_tag](data)
        verdict = record_class.check(owner, values)
        if verdict is None:
            record_class.apply(owner, values)
            self.stats.replayed_ops += 1
        elif verdict.__class__ is rec.Present:
            self.stats.skipped_ops += 1
        else:
            self._error(f"seq {seq}", f"{type_tag}: {verdict.args[0]}")

    def _error(self, where: str, message: str) -> None:
        self.stats.errors.append(f"{where}: {message}")


def recover(
    directory: str,
    topology,
    k: Optional[int] = None,
) -> RecoveredState:
    """Rebuild the metadata from a journal directory.

    Args:
        directory: The journal directory (segments + checkpoints).
        topology: The cluster topology the stores describe (topology is
            configuration, not journaled state).
        k: Stripe width for the pre-encoding store when neither a
            checkpoint nor a ``new_stripe`` record establishes one
            (``None`` leaves the stripe store absent).

    Returns:
        The rebuilt stores plus a :class:`RecoveryStats` describing the
        pass.  The stores come back *detached*; call
        :meth:`RecoveredState.reopen_journal` to resume journaling.
    """
    checkpoint, warnings = load_latest_checkpoint(directory)
    replayer = Replayer(
        None if checkpoint is None else checkpoint.state, topology, k
    )
    stats = replayer.stats
    stats.errors.extend(warnings)
    if checkpoint is not None:
        stats.checkpoint_seq = checkpoint.last_seq
    # Segments wholly covered by the checkpoint are never opened; the
    # first scanned one may still start at or below it.
    scan = ScanResult()
    for envelope in iter_journal(directory, scan, stats.checkpoint_seq):
        if envelope["seq"] > stats.checkpoint_seq:  # type: ignore[operator]
            replayer.apply(envelope)
    stats.torn_tail = scan.torn_tail
    stats.errors.extend(scan.errors)
    stats.last_seq = scan.last_seq
    PERF.bump("journal.replayed_ops", stats.replayed_ops)

    return RecoveredState(
        directory=directory, stores=replayer.stores, stats=stats
    )


def verify_stripe_consistency(stores: Stores) -> List[str]:
    """Check that no stripe is observably half-committed.

    A stripe is half-committed when parity blocks for it exist in the
    block store while the stripe itself is not (yet) encoded, or when an
    encoded stripe's registered parity set disagrees with the block
    store.  Returns human-readable problems (empty = consistent).
    """
    block_store, stripe_store = stores.blocks, stores.stripes
    problems: List[str] = []
    if stripe_store is None:
        return problems
    parity_by_stripe: Dict[int, Set[int]] = {}
    for block in block_store.blocks():
        if block.is_parity() and block.stripe_id is not None:
            parity_by_stripe.setdefault(
                block.stripe_id, set()
            ).add(block.block_id)
    for stripe in sorted(stripe_store, key=lambda s: s.stripe_id):
        registered = parity_by_stripe.get(stripe.stripe_id, set())
        if stripe.state == StripeState.ENCODED:
            if not stripe.parity_block_ids:
                problems.append(
                    f"stripe {stripe.stripe_id} is encoded but records no "
                    f"parity blocks"
                )
            if set(stripe.parity_block_ids) != registered:
                problems.append(
                    f"stripe {stripe.stripe_id} parity mismatch: stripe "
                    f"records {sorted(stripe.parity_block_ids)}, block "
                    f"store holds {sorted(registered)}"
                )
            for parity_id in stripe.parity_block_ids:
                if (parity_id in block_store
                        and not block_store.replica_nodes(parity_id)):
                    problems.append(
                        f"parity block {parity_id} of stripe "
                        f"{stripe.stripe_id} has no replica"
                    )
        elif registered:
            problems.append(
                f"stripe {stripe.stripe_id} is {stripe.state} but parity "
                f"blocks {sorted(registered)} exist — half-committed"
            )
    return problems
