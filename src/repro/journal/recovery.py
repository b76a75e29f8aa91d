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
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.cluster.block import Block, BlockKind
from repro.core.stripe import PreEncodingStore, Stripe, StripeState
from repro.journal import records as rec
from repro.journal.checkpoint import load_latest_checkpoint
from repro.journal.journal import MetadataJournal
from repro.journal.state import restore_state, state_fingerprint
from repro.journal.wal import ScanResult, iter_journal
from repro.sim.metrics import PERF

#: One envelope's ``data`` object: field name -> JSON value.
Data = Dict[str, Any]


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
        if self.stats.rolled_forward:
            # The roll-forward is not in the log; replaying the log over
            # later records would redo it in another order.
            journal.checkpoint()
        return journal


class Replayer:
    """Applies journal envelopes to the rebuilding stores, idempotently.

    Handlers are picked by the envelope's type tag and read the fields
    straight from its ``data`` object; no record instance is built.
    """

    def __init__(self, state: Optional[Dict[str, object]], topology,
                 k: Optional[int] = None) -> None:
        """Start from a checkpointed ``state`` (``None``: empty stores,
        with a pre-encoding store only when ``k`` is given)."""
        restored = restore_state(state or {}, topology)
        self.blocks = restored.block_store
        self.stripes = restored.stripe_store
        if state is None and k is not None:
            self.stripes = PreEncodingStore(k)
        self.namespace = restored.namespace
        self.dead_nodes = restored.dead_nodes
        self.pending_relocations = restored.pending_relocations
        self.stats = RecoveryStats()
        # stripe_id -> (intent data, parity ids already replayed)
        self.open_brackets: Dict[int, Tuple[Data, List[int]]] = {}

    def _error(self, seq: int, message: str) -> None:
        self.stats.errors.append(f"seq {seq}: {message}")

    # -- dispatch ------------------------------------------------------
    def apply(self, envelope: Dict[str, object]) -> None:
        """Replay one envelope.  A handler returns ``True`` when it applied
        the record, ``False`` when its effect was already present, and
        ``None`` after reporting an error."""
        seq = int(envelope["seq"])  # type: ignore[call-overload]
        type_tag, data = envelope.get("type"), envelope.get("data")
        names = rec.RECORD_FIELDS.get(type_tag)  # type: ignore[arg-type]
        if names is None:
            return self._error(seq, f"undecodable record: unknown journal "
                                    f"record type {type_tag!r}")
        if not isinstance(data, dict) or data.keys() != names:
            return self._error(seq, f"undecodable record: {type_tag} data "
                                    f"must carry exactly {sorted(names)}")
        applied = getattr(self, f"_on_{type_tag}")(seq, data)
        if applied:
            self.stats.replayed_ops += 1
        elif applied is False:
            self.stats.skipped_ops += 1

    # -- block lifecycle ----------------------------------------------
    def _on_add_block(self, seq: int, data: Data) -> Optional[bool]:
        if data["block_id"] in self.blocks:
            return False
        self.blocks.restore_block(Block(
            data["block_id"], data["size"], data["kind"], data["stripe_id"]
        ))
        return True

    def _on_place_replica(self, seq: int, data: Data) -> Optional[bool]:
        block_id, node_id = data["block_id"], data["node_id"]
        if block_id not in self.blocks:
            return self._error(seq, f"replica of unknown block {block_id}")
        if node_id in self.blocks.replica_nodes(block_id):
            return False
        self.blocks.add_replica(
            block_id, node_id, is_primary=data["is_primary"]
        )
        return True

    def _on_delete_replica(self, seq: int, data: Data) -> Optional[bool]:
        block_id, node_id = data["block_id"], data["node_id"]
        if (block_id not in self.blocks
                or node_id not in self.blocks.replica_nodes(block_id)):
            return False
        self.blocks.remove_replica(block_id, node_id)
        return True

    def _on_assign_stripe(self, seq: int, data: Data) -> Optional[bool]:
        block_id, stripe_id = data["block_id"], data["stripe_id"]
        if block_id not in self.blocks:
            return self._error(
                seq, f"stripe assignment for unknown block {block_id}"
            )
        if self.blocks.block(block_id).stripe_id == stripe_id:
            return False
        self.blocks.assign_stripe(block_id, stripe_id)
        return True

    def _on_relocate(self, seq: int, data: Data) -> Optional[bool]:
        block_id = data["block_id"]
        src_node, dst_node = data["src_node"], data["dst_node"]
        if block_id not in self.blocks:
            return self._error(seq, f"relocation of unknown block {block_id}")
        nodes = self.blocks.replica_nodes(block_id)
        if dst_node in nodes:
            return False
        if src_node not in nodes:
            return self._error(seq, f"relocation source {src_node} holds "
                                    f"no replica of block {block_id}")
        self.blocks.move_replica(block_id, src_node, dst_node)
        return True

    def _on_mark_corrupted(self, seq: int, data: Data) -> Optional[bool]:
        block_id, node_id = data["block_id"], data["node_id"]
        if (block_id not in self.blocks
                or node_id not in self.blocks.replica_nodes(block_id)):
            return self._error(seq, f"corruption mark for absent replica "
                                    f"({block_id}, {node_id})")
        if self.blocks.is_corrupted(block_id, node_id):
            return False
        self.blocks.mark_corrupted(block_id, node_id)
        return True

    def _on_clear_corrupted(self, seq: int, data: Data) -> Optional[bool]:
        block_id, node_id = data["block_id"], data["node_id"]
        if (block_id not in self.blocks
                or not self.blocks.is_corrupted(block_id, node_id)):
            return False
        self.blocks.clear_corrupted(block_id, node_id)
        return True

    # -- stripe lifecycle ---------------------------------------------
    def _on_new_stripe(self, seq: int, data: Data) -> Optional[bool]:
        if self.stripes is None:
            self.stripes = PreEncodingStore(data["k"])
        try:
            self.stripes.stripe(data["stripe_id"])
            return False
        except KeyError:
            pass
        self.stripes.restore_stripe(Stripe(
            stripe_id=data["stripe_id"],
            k=data["k"],
            core_rack=data["core_rack"],
            target_racks=None if data["target_racks"] is None
            else tuple(data["target_racks"]),
        ))
        return True

    def _on_stripe_add_block(self, seq: int, data: Data) -> Optional[bool]:
        stripe_id, block_id = data["stripe_id"], data["block_id"]
        if self.stripes is None:
            return self._error(seq, f"stripe {stripe_id} unknown (no store)")
        try:
            stripe = self.stripes.stripe(stripe_id)
        except KeyError:
            return self._error(
                seq, f"block added to unknown stripe {stripe_id}"
            )
        if block_id in stripe.block_ids:
            return False
        self.stripes.add_block(
            stripe_id, block_id, seal_when_full=data["seal_when_full"]
        )
        return True

    def _on_seal_stripe(self, seq: int, data: Data) -> Optional[bool]:
        stripe_id = data["stripe_id"]
        if self.stripes is None:
            return self._error(seq, f"seal of unknown stripe {stripe_id}")
        stripe = self.stripes.stripe(stripe_id)
        if stripe.state != StripeState.OPEN:
            return False
        stripe.seal()
        return True

    # -- the commit bracket -------------------------------------------
    def _on_begin_stripe_commit(self, seq: int, data: Data) -> Optional[bool]:
        self.open_brackets[data["stripe_id"]] = (data, [])
        return True

    def _on_parity_add(self, seq: int, data: Data) -> Optional[bool]:
        stripe_id, block_id = data["stripe_id"], data["block_id"]
        bracket = self.open_brackets.get(stripe_id)
        if bracket is not None:
            bracket[1].append(block_id)
        if block_id in self.blocks:
            return False
        self.blocks.restore_block(Block(
            block_id, data["size"], BlockKind.PARITY, stripe_id
        ))
        self.blocks.add_replica(block_id, data["node_id"], is_primary=True)
        return True

    def _on_end_stripe_commit(self, seq: int, data: Data) -> Optional[bool]:
        stripe_id = data["stripe_id"]
        self.open_brackets.pop(stripe_id, None)
        if self.stripes is None:
            return self._error(seq, f"commit of unknown stripe {stripe_id}")
        stripe = self.stripes.stripe(stripe_id)
        if stripe.state == StripeState.ENCODED:
            return False
        stripe.mark_encoded(list(data["parity_block_ids"]))
        return True

    def roll_forward_open_brackets(self) -> None:
        """Complete every still-open commit bracket from its intent.

        Reproduces ``NameNode.record_encoding`` exactly: the remaining
        parity blocks are created in plan order (the sequential id
        counter regenerates the ids the crashed process would have
        allocated), then the retention pairs are applied with the same
        surviving-keeper fallback, then the stripe is marked encoded.
        """
        for stripe_id in sorted(self.open_brackets):
            intent, parity_ids = self.open_brackets[stripe_id]
            parity_ids = list(parity_ids)
            for node_id in intent["parity_nodes"][len(parity_ids):]:
                parity = self.blocks.create_block(
                    intent["parity_size"], kind=BlockKind.PARITY,
                    stripe_id=stripe_id,
                )
                self.blocks.add_replica(
                    parity.block_id, node_id, is_primary=True
                )
                parity_ids.append(parity.block_id)
            for block_id, node_id in intent["retained"]:
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
    def _on_relocation_requested(self, seq: int, data: Data) -> Optional[bool]:
        # Duplicates are legal (the same stripe can be flagged twice),
        # so no idempotence check: every request record is one backlog
        # entry, matched by one relocation_served record.
        self.pending_relocations.append(data["stripe_id"])
        return True

    def _on_relocation_served(self, seq: int, data: Data) -> Optional[bool]:
        if data["stripe_id"] not in self.pending_relocations:
            return False
        self.pending_relocations.remove(data["stripe_id"])
        return True

    # -- node liveness -------------------------------------------------
    def _on_node_dead(self, seq: int, data: Data) -> Optional[bool]:
        if data["node_id"] in self.dead_nodes:
            return False
        self.dead_nodes.add(data["node_id"])
        return True

    def _on_node_alive(self, seq: int, data: Data) -> Optional[bool]:
        if data["node_id"] not in self.dead_nodes:
            return False
        self.dead_nodes.discard(data["node_id"])
        return True

    # -- file namespace ------------------------------------------------
    def _on_file_create(self, seq: int, data: Data) -> Optional[bool]:
        if self.namespace.exists(data["name"]):
            return False
        self.namespace.create(data["name"])
        return True

    def _on_file_append_block(self, seq: int, data: Data) -> Optional[bool]:
        name, block_id = data["name"], data["block_id"]
        if not self.namespace.exists(name):
            return self._error(seq, f"block appended to unknown file {name!r}")
        if block_id in self.namespace.lookup(name).block_ids:
            return False
        self.namespace.append_block(name, block_id, data["size"])
        return True

    def _on_file_delete(self, seq: int, data: Data) -> Optional[bool]:
        if not self.namespace.exists(data["name"]):
            return False
        self.namespace.delete(data["name"])
        return True


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
    replayer.roll_forward_open_brackets()
    stats.torn_tail = scan.torn_tail
    stats.errors.extend(scan.errors)
    stats.last_seq = scan.last_seq
    PERF.bump("journal.replayed_ops", stats.replayed_ops)

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
