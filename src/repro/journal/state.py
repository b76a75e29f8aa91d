"""Canonical metadata state: capture, fingerprint, restore.

``capture_state`` flattens the NameNode-side metadata — the
:class:`Stores` bundle of block store, pre-encoding store, file
namespace, dead-node set and pending relocations — into one canonical,
JSON-serializable dict; ``state_fingerprint`` hashes that dict.  The
fingerprint is the durability layer's correctness oracle: for any crash
point, the fingerprint of the recovered metadata must equal the
fingerprint the pre-crash process would have produced at the same
consistency point (see :mod:`repro.faults.crash`).

Replica lists are kept in *insertion order* (not sorted): journal replay
reproduces the exact insertion history, so the stricter ordered
comparison is both achievable and more sensitive — it catches replay
reorderings that a set-compare would mask.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.cluster.block import BlockKind
from repro.journal.records import (
    PRESENT,
    AddBlock,
    AllocateBlock,
    EncodeStripe,
    commit,
    owns,
)


@owns("")
@dataclass
class Stores:
    """The NameNode-side metadata: every store a journal record changes.

    The block store, the pre-encoding store (``None`` when no policy
    keeps one) and the namespace define their own record transitions;
    the bundle defines those of the dead-node set, the pending
    relocations (in request order), and the two records that change the
    block and the stripe store at once: a block write
    (:meth:`allocate_block`) and a stripe encode (:meth:`encode_stripe`).
    Those two compose the stores' own tests and transitions, so each
    event is one record however many replicas it places or deletes.
    """

    blocks: Any = None
    stripes: Any = None
    namespace: Any = None
    dead_nodes: Set[int] = field(default_factory=set)
    pending_relocations: List[int] = field(default_factory=list)

    journal = None

    # -- record transitions (see repro.journal.records): validity test
    # -- (None: applies, PRESENT: already applied), state change
    def check_node_dead(self, fields):
        return PRESENT if fields[0] in self.dead_nodes else None

    def apply_node_dead(self, fields) -> None:
        self.dead_nodes.add(fields[0])

    def check_node_alive(self, fields):
        return None if fields[0] in self.dead_nodes else PRESENT

    def apply_node_alive(self, fields) -> None:
        self.dead_nodes.discard(fields[0])

    def check_relocation_requested(self, fields):
        # Duplicates are legal (the same stripe can be flagged twice):
        # every request is one backlog entry, matched by one service.
        return None

    def apply_relocation_requested(self, fields) -> None:
        self.pending_relocations.append(fields[0])

    def check_relocation_served(self, fields):
        return None if fields[0] in self.pending_relocations else PRESENT

    def apply_relocation_served(self, fields) -> None:
        self.pending_relocations.remove(fields[0])

    # -- the live paths of the two records spanning both stores
    def allocate_block(self, block_id: int, size: int,
                       stripe_id: Optional[int], node_ids: Sequence[int]):
        """Register data block ``block_id`` stamped with ``stripe_id``, add
        it to that stripe (sealing it when full) and place its copies on
        ``node_ids``, the first primary: one ``allocate_block`` record."""
        return commit(self, AllocateBlock, (
            block_id, size, stripe_id, tuple(node_ids),
        ))

    def encode_stripe(self, stripe_id: int, parity_nodes: Sequence[int],
                      parity_size: int,
                      retained: Iterable[Tuple[int, int]]):
        """Commit a sealed stripe's encode as one ``encode_stripe`` record
        and return the parity blocks, in ``parity_nodes`` order.

        Mints one parity block per parity node, keeps each data block's
        planned ``(block_id, node_id)`` copy (or its first surviving copy
        when a failure took the planned one; none when none survives) and
        deletes the others, then flips the stripe to encoded."""
        return commit(self, EncodeStripe, (
            stripe_id, tuple(parity_nodes), parity_size, tuple(retained),
        ))

    def check_allocate_block(self, fields):
        block_id, size, stripe_id, node_ids = fields
        blocks = self.blocks
        verdict = blocks.check_add_block(
            (block_id, size, BlockKind.DATA, stripe_id)
        )
        if verdict is None:
            verdict = blocks.check_nodes(node_ids)
        if verdict is None and len(set(node_ids)) < len(node_ids):
            verdict = ValueError(f"block {block_id} placed twice on one node")
        if verdict is None and stripe_id is not None:
            if self.stripes is None:
                return KeyError(f"unknown stripe id {stripe_id}")
            verdict = self.stripes.check_stripe_add_block(
                (stripe_id, block_id, True)
            )
        return verdict

    def apply_allocate_block(self, fields):
        block_id, size, stripe_id, node_ids = fields
        blocks = self.blocks
        block = blocks.apply_add_block(
            (block_id, size, BlockKind.DATA, stripe_id)
        )
        if stripe_id is not None:
            self.stripes.apply_stripe_add_block((stripe_id, block_id, True))
        blocks.apply_place_copies(block, node_ids)
        return block

    def check_encode_stripe(self, fields):
        stripe_id, parity_nodes, parity_size, retained = fields
        if self.stripes is None:
            return KeyError(f"unknown stripe id {stripe_id}")
        blocks = self.blocks
        verdict = self.stripes.check_encode(stripe_id)
        if verdict is None:
            verdict = blocks.check_add_block(
                (blocks.next_block_id, parity_size, BlockKind.PARITY,
                 stripe_id)
            )
        if verdict is None:
            verdict = blocks.check_nodes(parity_nodes)
        if verdict is None:
            for block_id, _node_id in retained:
                if block_id not in blocks:
                    return KeyError(f"unknown block id {block_id}")
        return verdict

    def apply_encode_stripe(self, fields):
        stripe_id, parity_nodes, parity_size, retained = fields
        blocks = self.blocks
        parity = []
        for node_id in parity_nodes:
            block = blocks.apply_add_block(
                (blocks.next_block_id, parity_size, BlockKind.PARITY,
                 stripe_id)
            )
            blocks.apply_place_replica((block.block_id, node_id, True))
            parity.append(block)
        for block_id, node_id in retained:
            survivors = blocks.replica_nodes(block_id)
            if survivors and node_id not in survivors:
                node_id = survivors[0]
            for other in survivors:
                if other != node_id:
                    blocks.apply_delete_replica((block_id, other))
        self.stripes.apply_encode(stripe_id, [b.block_id for b in parity])
        return parity


def capture_state(stores: Stores) -> Dict[str, object]:
    """The full metadata state as one canonical JSON-serializable dict."""
    block_store, stripe_store = stores.blocks, stores.stripes
    blocks: List[List[object]] = []
    replicas: Dict[str, List[List[object]]] = {}
    for block, placed in block_store.placements():
        blocks.append(
            [block.block_id, block.size, block.kind, block.stripe_id]
        )
        replicas[str(block.block_id)] = placed
    state: Dict[str, object] = {
        "blocks": blocks,
        "replicas": replicas,
        "corrupted": [list(pair) for pair in block_store.corrupted_replicas()],
        "next_block_id": block_store.next_block_id,
        "dead_nodes": sorted(stores.dead_nodes),
        # Request order, not sorted: replay reproduces the exact backlog
        # sequence, so the stricter ordered comparison is achievable.
        "pending_relocations": list(stores.pending_relocations),
        "stripes": None,
        "files": [],
    }
    if stripe_store is not None:
        items = []
        for stripe in sorted(stripe_store, key=lambda s: s.stripe_id):
            items.append([
                stripe.stripe_id,
                stripe.k,
                list(stripe.block_ids),
                stripe.core_rack,
                None if stripe.target_racks is None
                else list(stripe.target_racks),
                stripe.state,
                list(stripe.parity_block_ids),
            ])
        state["stripes"] = {
            "k": stripe_store.k,
            "next_stripe_id": stripe_store.next_stripe_id,
            "items": items,
        }
    if stores.namespace is not None:
        state["files"] = [
            [meta.name, list(meta.block_ids), meta.size]
            for meta in stores.namespace.files()
        ]
    return state


def state_fingerprint(stores: Stores) -> str:
    """sha256 over the canonical metadata state.

    Deterministic for identical metadata regardless of host, hash seed,
    or the path (live mutation vs journal replay) that produced it.
    """
    return fingerprint_of(capture_state(stores))


def fingerprint_of(state: Dict[str, object]) -> str:
    """sha256 over the canonical encoding of a captured state dict."""
    blob = json.dumps(  # a captured state holds no cycles to check for
        state, sort_keys=True, separators=(",", ":"), check_circular=False
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def restore_state(state: Dict[str, object], topology) -> Stores:
    """Rebuild live stores from a captured (or checkpointed) state dict.

    The restored stores are detached (``journal is None``); recovery
    attaches a journal only after replay completes, so rebuilding never
    re-journals history.
    """
    from repro.cluster.block import BlockStore
    from repro.core.stripe import PreEncodingStore, Stripe
    from repro.hdfs.files import FileNamespace

    block_store = BlockStore(topology)
    for block_id, size, kind, stripe_id in state.get("blocks", []):
        commit(block_store, AddBlock, (block_id, size, kind, stripe_id))
    for key, entries in state.get("replicas", {}).items():
        for node_id, is_primary in entries:
            block_store.add_replica(int(key), node_id, is_primary=is_primary)
    for block_id, node_id in state.get("corrupted", []):
        block_store.mark_corrupted(block_id, node_id)
    next_block_id = state.get("next_block_id")
    if isinstance(next_block_id, int):
        block_store.resume_ids(next_block_id)

    stripe_store: Optional[PreEncodingStore] = None
    stripes_blob = state.get("stripes")
    if isinstance(stripes_blob, dict):
        stripe_store = PreEncodingStore(int(stripes_blob["k"]))
        for item in stripes_blob.get("items", []):
            (stripe_id, k, block_ids, core_rack,
             target_racks, stripe_state, parity_ids) = item
            stripe = Stripe(
                stripe_id=stripe_id,
                k=k,
                block_ids=list(block_ids),
                core_rack=core_rack,
                target_racks=None if target_racks is None
                else tuple(target_racks),
                state=stripe_state,
                parity_block_ids=list(parity_ids),
            )
            stripe_store.restore_stripe(stripe)
        next_stripe_id = stripes_blob.get("next_stripe_id")
        if isinstance(next_stripe_id, int):
            stripe_store.resume_ids(next_stripe_id)

    namespace = FileNamespace()
    for name, block_ids, size in state.get("files", []):
        namespace.restore_file(name, block_ids, size)

    return Stores(
        blocks=block_store,
        stripes=stripe_store,
        namespace=namespace,
        dead_nodes=set(state.get("dead_nodes", [])),
        pending_relocations=[
            int(sid) for sid in state.get("pending_relocations", [])
        ],
    )
