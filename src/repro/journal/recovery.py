"""Crash-consistent recovery: checkpoint + log-tail replay.

``recover()`` rebuilds the NameNode-side metadata from a journal
directory the way a restarted NameNode would: load the newest valid
checkpoint (skipping any that fail their CRC), then replay every durable
log record after it.  Replay is *idempotent* — a record whose effect is
already present (because the checkpoint captured it, or because a
previous recovery attempt half-ran) is skipped, not re-applied — and the
torn tail a mid-write crash leaves behind is discarded by the scanner.

Stripe commits are bracketed in the log as an intent/commit pair
(:class:`~repro.journal.records.BeginStripeCommit` …
:class:`~repro.journal.records.EndStripeCommit`).  A bracket still open
at the end of the log is **rolled forward** from its intent record:
parity bytes are uploaded *before* the metadata commit begins (see
``StripeEncoder._star_attempt`` step ordering), so completing the commit
is always safe, and it is the only resolution that leaves no stripe
observably half-committed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.journal import records as rec
from repro.journal.checkpoint import load_latest_checkpoint
from repro.journal.journal import MetadataJournal
from repro.journal.state import restore_state, state_fingerprint
from repro.journal.wal import scan_journal
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
        rolled_forward: Stripe ids whose commit bracket was completed
            from its intent record.
        torn_tail: Scanner description of a tolerated torn final record.
        errors: Structural log errors plus replay impossibilities
            (a healthy journal produces none).
    """

    checkpoint_seq: int = 0
    last_seq: int = 0
    replayed_ops: int = 0
    skipped_ops: int = 0
    rolled_forward: List[int] = field(default_factory=list)
    torn_tail: Optional[str] = None
    errors: List[str] = field(default_factory=list)


@dataclass
class RecoveredState:
    """The rebuilt stores plus the stats of the recovery pass."""

    directory: str
    block_store: object
    stripe_store: Optional[object]
    namespace: object
    dead_nodes: Set[int]
    stats: RecoveryStats
    pending_relocations: List[int] = field(default_factory=list)

    def fingerprint(self) -> str:
        """``state_fingerprint()`` of the recovered metadata."""
        return state_fingerprint(
            self.block_store, self.stripe_store, self.namespace,
            self.dead_nodes, self.pending_relocations,
        )

    def reopen_journal(self, **kwargs) -> MetadataJournal:
        """A fresh journal resuming this directory, stores attached.

        The writer starts a new segment and sequence numbers continue
        after the durable tail, so post-recovery mutations journal
        seamlessly onto the same log.
        """
        journal = MetadataJournal(self.directory, **kwargs)
        journal.attach(
            block_store=self.block_store,
            stripe_store=self.stripe_store,
            namespace=self.namespace,
        )
        journal.dead_nodes = set(self.dead_nodes)
        journal.pending_relocations = list(self.pending_relocations)
        return journal


class _Replayer:
    """Applies decoded records to the rebuilding stores, idempotently."""

    def __init__(self, topology, block_store, stripe_store, namespace,
                 dead_nodes: Set[int], stats: RecoveryStats,
                 pending_relocations: Optional[List[int]] = None) -> None:
        self.topology = topology
        self.blocks = block_store
        self.stripes = stripe_store
        self.namespace = namespace
        self.dead_nodes = dead_nodes
        self.stats = stats
        self.pending_relocations: List[int] = (
            [] if pending_relocations is None else pending_relocations
        )
        # stripe_id -> (intent record, parity ids already replayed)
        self.open_brackets: Dict[int, Tuple[rec.BeginStripeCommit, List[int]]] = {}

    # -- helpers -------------------------------------------------------
    def _applied(self) -> None:
        self.stats.replayed_ops += 1
        PERF.bump("journal.replayed_ops")

    def _skipped(self) -> None:
        self.stats.skipped_ops += 1

    def _error(self, seq: int, message: str) -> None:
        self.stats.errors.append(f"seq {seq}: {message}")

    def _ensure_stripe_store(self, k: int):
        if self.stripes is None:
            from repro.core.stripe import PreEncodingStore

            self.stripes = PreEncodingStore(k)
        return self.stripes

    # -- dispatch ------------------------------------------------------
    def apply(self, seq: int, record: rec.JournalRecord) -> None:
        handler = getattr(self, "_on_" + type(record).record_type, None)
        if handler is None:
            self._error(seq, f"no replay handler for {type(record).__name__}")
            return
        handler(seq, record)

    # -- block lifecycle ----------------------------------------------
    def _on_add_block(self, seq: int, record: rec.AddBlock) -> None:
        from repro.cluster.block import Block

        if record.block_id in self.blocks:
            self._skipped()
            return
        self.blocks.restore_block(Block(
            record.block_id, record.size, record.kind, record.stripe_id
        ))
        self._applied()

    def _on_place_replica(self, seq: int, record: rec.PlaceReplica) -> None:
        if record.block_id not in self.blocks:
            self._error(seq, f"replica of unknown block {record.block_id}")
            return
        if record.node_id in self.blocks.replica_nodes(record.block_id):
            self._skipped()
            return
        self.blocks.add_replica(
            record.block_id, record.node_id, is_primary=record.is_primary
        )
        self._applied()

    def _on_delete_replica(self, seq: int, record: rec.DeleteReplica) -> None:
        if (record.block_id not in self.blocks
                or record.node_id
                not in self.blocks.replica_nodes(record.block_id)):
            self._skipped()
            return
        self.blocks.remove_replica(record.block_id, record.node_id)
        self._applied()

    def _on_assign_stripe(self, seq: int, record: rec.AssignStripe) -> None:
        if record.block_id not in self.blocks:
            self._error(seq, f"stripe assignment for unknown block "
                             f"{record.block_id}")
            return
        if self.blocks.block(record.block_id).stripe_id == record.stripe_id:
            self._skipped()
            return
        self.blocks.assign_stripe(record.block_id, record.stripe_id)
        self._applied()

    def _on_relocate(self, seq: int, record: rec.Relocate) -> None:
        if record.block_id not in self.blocks:
            self._error(seq, f"relocation of unknown block {record.block_id}")
            return
        nodes = self.blocks.replica_nodes(record.block_id)
        if record.dst_node in nodes:
            self._skipped()
            return
        if record.src_node not in nodes:
            self._error(seq, f"relocation source {record.src_node} holds no "
                             f"replica of block {record.block_id}")
            return
        self.blocks.move_replica(
            record.block_id, record.src_node, record.dst_node
        )
        self._applied()

    def _on_mark_corrupted(self, seq: int, record: rec.MarkCorrupted) -> None:
        if (record.block_id not in self.blocks
                or record.node_id
                not in self.blocks.replica_nodes(record.block_id)):
            self._error(seq, f"corruption mark for absent replica "
                             f"({record.block_id}, {record.node_id})")
            return
        if self.blocks.is_corrupted(record.block_id, record.node_id):
            self._skipped()
            return
        self.blocks.mark_corrupted(record.block_id, record.node_id)
        self._applied()

    def _on_clear_corrupted(self, seq: int, record: rec.ClearCorrupted) -> None:
        if (record.block_id not in self.blocks
                or not self.blocks.is_corrupted(
                    record.block_id, record.node_id)):
            self._skipped()
            return
        self.blocks.clear_corrupted(record.block_id, record.node_id)
        self._applied()

    # -- stripe lifecycle ---------------------------------------------
    def _on_new_stripe(self, seq: int, record: rec.NewStripe) -> None:
        from repro.core.stripe import Stripe

        store = self._ensure_stripe_store(record.k)
        try:
            store.stripe(record.stripe_id)
            self._skipped()
            return
        except KeyError:
            pass
        store.restore_stripe(Stripe(
            stripe_id=record.stripe_id,
            k=record.k,
            core_rack=record.core_rack,
            target_racks=None if record.target_racks is None
            else tuple(record.target_racks),
        ))
        self._applied()

    def _on_stripe_add_block(self, seq: int, record: rec.StripeAddBlock) -> None:
        if self.stripes is None:
            self._error(seq, f"stripe {record.stripe_id} unknown (no store)")
            return
        try:
            stripe = self.stripes.stripe(record.stripe_id)
        except KeyError:
            self._error(seq, f"block added to unknown stripe "
                             f"{record.stripe_id}")
            return
        if record.block_id in stripe.block_ids:
            self._skipped()
            return
        self.stripes.add_block(
            record.stripe_id, record.block_id,
            seal_when_full=record.seal_when_full,
        )
        self._applied()

    def _on_seal_stripe(self, seq: int, record: rec.SealStripe) -> None:
        from repro.core.stripe import StripeState

        if self.stripes is None:
            self._error(seq, f"seal of unknown stripe {record.stripe_id}")
            return
        stripe = self.stripes.stripe(record.stripe_id)
        if stripe.state != StripeState.OPEN:
            self._skipped()
            return
        stripe.seal()
        self._applied()

    # -- the commit bracket -------------------------------------------
    def _on_begin_stripe_commit(
        self, seq: int, record: rec.BeginStripeCommit
    ) -> None:
        self.open_brackets[record.stripe_id] = (record, [])
        self._applied()

    def _on_parity_add(self, seq: int, record: rec.ParityAdd) -> None:
        from repro.cluster.block import Block, BlockKind

        bracket = self.open_brackets.get(record.stripe_id)
        if bracket is not None:
            bracket[1].append(record.block_id)
        if record.block_id in self.blocks:
            self._skipped()
            return
        self.blocks.restore_block(Block(
            record.block_id, record.size, BlockKind.PARITY, record.stripe_id
        ))
        self.blocks.add_replica(
            record.block_id, record.node_id, is_primary=True
        )
        self._applied()

    def _on_end_stripe_commit(
        self, seq: int, record: rec.EndStripeCommit
    ) -> None:
        from repro.core.stripe import StripeState

        self.open_brackets.pop(record.stripe_id, None)
        if self.stripes is None:
            self._error(seq, f"commit of unknown stripe {record.stripe_id}")
            return
        stripe = self.stripes.stripe(record.stripe_id)
        if stripe.state == StripeState.ENCODED:
            self._skipped()
            return
        stripe.mark_encoded(list(record.parity_block_ids))
        self._applied()

    def roll_forward_open_brackets(self) -> None:
        """Complete every still-open commit bracket from its intent.

        Reproduces ``NameNode.record_encoding`` exactly: the remaining
        parity blocks are created in plan order (the sequential id
        counter regenerates the ids the crashed process would have
        allocated), then the retention pairs are applied with the same
        surviving-keeper fallback, then the stripe is marked encoded.
        """
        from repro.cluster.block import BlockKind
        from repro.core.stripe import StripeState

        for stripe_id in sorted(self.open_brackets):
            intent, parity_ids = self.open_brackets[stripe_id]
            parity_ids = list(parity_ids)
            for node_id in intent.parity_nodes[len(parity_ids):]:
                parity = self.blocks.create_block(
                    intent.parity_size, kind=BlockKind.PARITY,
                    stripe_id=stripe_id,
                )
                self.blocks.add_replica(
                    parity.block_id, node_id, is_primary=True
                )
                parity_ids.append(parity.block_id)
            for block_id, node_id in intent.retained:
                survivors = self.blocks.replica_nodes(block_id)
                if not survivors:
                    continue
                keeper = node_id if node_id in survivors else survivors[0]
                self.blocks.retain_only(block_id, keeper)
            if self.stripes is not None:
                stripe = self.stripes.stripe(stripe_id)
                if stripe.state != StripeState.ENCODED:
                    stripe.mark_encoded(parity_ids)
            self.stats.rolled_forward.append(stripe_id)
        self.open_brackets.clear()

    # -- relocation backlog -------------------------------------------
    def _on_relocation_requested(
        self, seq: int, record: rec.RelocationRequested
    ) -> None:
        # Duplicates are legal (the same stripe can be flagged twice),
        # so no idempotence check: every request record is one backlog
        # entry, matched by one relocation_served record.
        self.pending_relocations.append(record.stripe_id)
        self._applied()

    def _on_relocation_served(
        self, seq: int, record: rec.RelocationServed
    ) -> None:
        if record.stripe_id not in self.pending_relocations:
            self._skipped()
            return
        self.pending_relocations.remove(record.stripe_id)
        self._applied()

    # -- node liveness -------------------------------------------------
    def _on_node_dead(self, seq: int, record: rec.NodeDead) -> None:
        if record.node_id in self.dead_nodes:
            self._skipped()
            return
        self.dead_nodes.add(record.node_id)
        self._applied()

    def _on_node_alive(self, seq: int, record: rec.NodeAlive) -> None:
        if record.node_id not in self.dead_nodes:
            self._skipped()
            return
        self.dead_nodes.discard(record.node_id)
        self._applied()

    # -- file namespace ------------------------------------------------
    def _on_file_create(self, seq: int, record: rec.FileCreate) -> None:
        if self.namespace.exists(record.name):
            self._skipped()
            return
        self.namespace.create(record.name)
        self._applied()

    def _on_file_append_block(
        self, seq: int, record: rec.FileAppendBlock
    ) -> None:
        if not self.namespace.exists(record.name):
            self._error(seq, f"block appended to unknown file {record.name!r}")
            return
        if record.block_id in self.namespace.lookup(record.name).block_ids:
            self._skipped()
            return
        self.namespace.append_block(record.name, record.block_id, record.size)
        self._applied()

    def _on_file_delete(self, seq: int, record: rec.FileDelete) -> None:
        if not self.namespace.exists(record.name):
            self._skipped()
            return
        self.namespace.delete(record.name)
        self._applied()


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
    stats = RecoveryStats()
    checkpoint, warnings = load_latest_checkpoint(directory)
    stats.errors.extend(warnings)

    if checkpoint is not None:
        restored = restore_state(checkpoint.state, topology)
        block_store = restored.block_store
        stripe_store = restored.stripe_store
        namespace = restored.namespace
        dead_nodes = restored.dead_nodes
        pending_relocations = restored.pending_relocations
        stats.checkpoint_seq = checkpoint.last_seq
    else:
        from repro.cluster.block import BlockStore
        from repro.core.stripe import PreEncodingStore
        from repro.hdfs.files import FileNamespace

        block_store = BlockStore(topology)
        stripe_store = None if k is None else PreEncodingStore(k)
        namespace = FileNamespace()
        dead_nodes = set()
        pending_relocations = []

    scan = scan_journal(directory)
    stats.torn_tail = scan.torn_tail
    stats.errors.extend(scan.errors)
    stats.last_seq = scan.last_seq

    replayer = _Replayer(
        topology, block_store, stripe_store, namespace, dead_nodes, stats,
        pending_relocations=pending_relocations,
    )
    for envelope in scan.envelopes:
        seq = int(envelope["seq"])  # type: ignore[arg-type]
        if seq <= stats.checkpoint_seq:
            continue
        try:
            record = rec.decode_record(envelope)
        except (rec.UnknownRecordError, TypeError, ValueError) as exc:
            replayer._error(seq, f"undecodable record: {exc}")
            continue
        replayer.apply(seq, record)
    replayer.roll_forward_open_brackets()

    return RecoveredState(
        directory=directory,
        block_store=replayer.blocks,
        stripe_store=replayer.stripes,
        namespace=replayer.namespace,
        dead_nodes=replayer.dead_nodes,
        stats=stats,
        pending_relocations=replayer.pending_relocations,
    )


def verify_stripe_consistency(block_store, stripe_store) -> List[str]:
    """Check that no stripe is observably half-committed.

    A stripe is half-committed when parity blocks for it exist in the
    block store while the stripe itself is not (yet) encoded, or when an
    encoded stripe's registered parity set disagrees with the block
    store.  Returns human-readable problems (empty = consistent).
    """
    from repro.core.stripe import StripeState

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
