"""Blocks, replicas, and the per-node block store.

A CFS file is a sequence of fixed-size blocks; each block initially exists as
``r`` replicas on distinct nodes and, after the encoding operation, as a
single copy that is protected by parity blocks of its stripe.  ``BlockStore``
tracks where every copy lives and enforces the structural invariants that the
placement policies rely on (no two copies of a block on one node, capacity
accounting, etc.).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple,
)

from repro.cluster.topology import ClusterTopology, NodeId, RackId
from repro.journal.records import (
    PRESENT,
    AddBlock,
    ClearCorrupted,
    DeleteReplica,
    MarkCorrupted,
    PlaceReplica,
    Present,
    Relocate,
    commit,
    owns,
)

BlockId = int


class BlockKind:
    """Enumeration of block roles within a stripe."""

    DATA = "data"
    PARITY = "parity"


@dataclass(frozen=True, slots=True)
class Block:
    """An immutable descriptor of a logical block.

    Attributes:
        block_id: Globally unique identifier.
        size: Block size in bytes (64 MB by default in the paper).
        kind: ``BlockKind.DATA`` or ``BlockKind.PARITY``.
        stripe_id: The stripe this block belongs to, or ``None`` before the
            block has been assigned to a stripe.
    """

    block_id: BlockId
    size: int
    kind: str = BlockKind.DATA
    stripe_id: Optional[int] = None

    def is_parity(self) -> bool:
        """True for parity blocks produced by the encoding operation."""
        return self.kind == BlockKind.PARITY


@dataclass(frozen=True)
class Replica:
    """One physical copy of a block on a specific node.

    Attributes:
        block_id: The logical block this copy belongs to.
        node_id: The node storing the copy.
        is_primary: True for the first replica written — under EAR this is
            the copy that lives in the stripe's core rack.
    """

    block_id: BlockId
    node_id: NodeId
    is_primary: bool = False


@owns("blocks")
class BlockStore:
    """Tracks the replica locations of every block in the cluster.

    The store is the authoritative map used by the NameNode model; placement
    policies record decisions here and the encoding pipeline consults and
    mutates it (replica deletion, parity insertion).

    Args:
        topology: The cluster this store describes.

    Raises:
        ValueError: On attempts to violate structural invariants, e.g.
            placing two replicas of one block on the same node.

    Every mutator is one journal record's live path
    (:func:`~repro.journal.records.commit`): the record's validity test
    ``check_<type>``, then the append to ``self.journal`` when a
    :class:`~repro.journal.journal.MetadataJournal` is attached, then its
    transition ``apply_<type>``.  Replay runs the same test and
    transition over the logged fields.  :meth:`resume_ids` is for
    checkpoint loading only and never journals.

    The store also keeps, per stripe id, how many blocks stamped with it
    hold at least one copy (:meth:`live_members`), updated by the two
    transitions that can change that number (place, delete), so replay
    rebuilds it with no extra code.  Callables registered with
    :meth:`watch` hear about every such change.
    """

    journal = None

    def __init__(self, topology: ClusterTopology) -> None:
        self.topology = topology
        self._blocks: Dict[BlockId, Block] = {}
        # Holder nodes per block in placement order, replaced (never
        # mutated) on each place or delete, so queries hand it out as is.
        self._holders: Dict[BlockId, Tuple[NodeId, ...]] = {}
        self._primary: Set[Tuple[BlockId, NodeId]] = set()
        self._node_blocks: Dict[NodeId, Set[BlockId]] = {
            node_id: set() for node_id in topology.node_ids()
        }
        self._next_id = 0
        self._corrupted: Set[Tuple[BlockId, NodeId]] = set()
        self._live_members: Dict[int, int] = {}
        self._watchers: List[Callable[[Block], None]] = []

    # ------------------------------------------------------------------
    # Mutators: one record each
    # ------------------------------------------------------------------
    @property
    def next_block_id(self) -> BlockId:
        """The id the next created block will receive."""
        return self._next_id

    def create_block(
        self,
        size: int,
        kind: str = BlockKind.DATA,
        stripe_id: Optional[int] = None,
    ) -> Block:
        """Allocate a fresh block id and register the block."""
        return commit(self, AddBlock, (self._next_id, size, kind, stripe_id))

    def resume_ids(self, next_id: BlockId) -> None:
        """Fast-forward the id counter (recovery/checkpoint load only)."""
        self._next_id = max(self._next_id, next_id)

    def add_replica(
        self, block_id: BlockId, node_id: NodeId, is_primary: bool = False
    ) -> None:
        """Record a new replica of ``block_id`` on ``node_id``.

        Raises:
            ValueError: If the node already stores a copy of this block.
        """
        commit(self, PlaceReplica, (block_id, node_id, is_primary))

    def add_replicas(self, block_id: BlockId, node_ids: Sequence[NodeId]) -> None:
        """Record all replicas for a block; the first one is primary."""
        for index, node_id in enumerate(node_ids):
            commit(self, PlaceReplica, (block_id, node_id, index == 0))

    def remove_replica(self, block_id: BlockId, node_id: NodeId) -> None:
        """Delete the copy of ``block_id`` held by ``node_id``.

        Raises:
            KeyError: If the node holds no copy of the block.
        """
        commit(self, DeleteReplica, (block_id, node_id))

    def retain_only(self, block_id: BlockId, node_id: NodeId) -> None:
        """Keep exactly the copy on ``node_id``; delete every other replica.

        This is step (iii) of the encoding operation: after parity blocks are
        written, the redundant replicas of each data block are removed.
        """
        nodes = self.replica_nodes(block_id)
        if node_id not in nodes:
            raise self._no_copy(block_id, node_id)
        for other in nodes:
            if other != node_id:
                commit(self, DeleteReplica, (block_id, other))

    def move_replica(self, block_id: BlockId, src: NodeId, dst: NodeId) -> None:
        """Relocate one copy from ``src`` to ``dst`` (BlockMover behaviour):
        one :class:`~repro.journal.records.Relocate` record."""
        commit(self, Relocate, (block_id, src, dst))

    def mark_corrupted(self, block_id: BlockId, node_id: NodeId) -> None:
        """Flag one replica as bit-rotted (its checksum no longer matches).

        The replica still occupies space and shows up in
        :meth:`replica_nodes`, but readers and repair pipelines must treat
        it as unusable — :meth:`healthy_replica_nodes` excludes it.

        Raises:
            KeyError: If the node holds no copy of the block.
        """
        commit(self, MarkCorrupted, (block_id, node_id))

    def clear_corrupted(self, block_id: BlockId, node_id: NodeId) -> None:
        """Unflag a replica (e.g. after it was rewritten from a good copy)."""
        commit(self, ClearCorrupted, (block_id, node_id))

    # ------------------------------------------------------------------
    # Record transitions: per record type, the validity test (None:
    # applies, Present: already applied, an exception: impossible) and
    # the state change, shared by the mutators above and by replay.
    # ``fields`` is the record's field values in declaration order.
    # ------------------------------------------------------------------
    def check_add_block(self, fields):
        block_id, size, kind, stripe_id = fields
        if block_id in self._blocks:
            return Present(ValueError(f"block {block_id} already registered"))
        if not size > 0:
            return ValueError("block size must be positive")
        return None

    def apply_add_block(self, fields) -> Block:
        block_id, size, kind, stripe_id = fields
        block = Block(block_id, size, kind, stripe_id)
        self._blocks[block_id] = block
        self._holders[block_id] = ()
        if block_id >= self._next_id:
            self._next_id = block_id + 1
        return block

    def check_nodes(self, node_ids):
        """The verdict on new copies going to ``node_ids``: a ``KeyError``
        naming the first unknown node, else ``None`` (a part of the
        bundle's ``allocate_block`` and ``encode_stripe`` tests)."""
        for node_id in node_ids:
            if node_id not in self._node_blocks:
                return KeyError(f"unknown node id {node_id}")
        return None

    def check_place_replica(self, fields):
        block_id, node_id, is_primary = fields
        if block_id not in self._blocks:
            return KeyError(f"unknown block id {block_id}")
        held = self._node_blocks.get(node_id)
        if held is None:
            return KeyError(f"unknown node id {node_id}")
        if block_id in held:
            return Present(ValueError(
                f"node {node_id} already stores a replica of block {block_id}"
            ))
        return None

    def apply_place_replica(self, fields) -> None:
        block_id, node_id, is_primary = fields
        block = self._blocks[block_id]
        holders = self._holders[block_id]
        stripe_id = block.stripe_id
        if not holders and stripe_id is not None:
            live = self._live_members
            live[stripe_id] = live.get(stripe_id, 0) + 1
        self._holders[block_id] = holders + (node_id,)
        if is_primary:
            self._primary.add((block_id, node_id))
        self._node_blocks[node_id].add(block_id)
        for callback in self._watchers:
            callback(block)

    def apply_place_copies(self, block: Block, node_ids: Sequence[NodeId]) -> None:
        """Place every copy of ``block``, which holds none yet, in one step:
        the holders in ``node_ids`` order, the first primary.  Leaves the
        store as one ``apply_place_replica`` per copy would, and calls each
        watcher once per copy.  The transition part of the bundle's
        ``allocate_block`` record, whose test vetted ``node_ids``."""
        if not node_ids:
            return
        block_id = block.block_id
        stripe_id = block.stripe_id
        if stripe_id is not None:
            live = self._live_members
            live[stripe_id] = live.get(stripe_id, 0) + 1
        self._holders[block_id] = tuple(node_ids)
        self._primary.add((block_id, node_ids[0]))
        node_blocks = self._node_blocks
        for node_id in node_ids:
            node_blocks[node_id].add(block_id)
        watchers = self._watchers
        for __ in node_ids:
            for callback in watchers:
                callback(block)

    def check_delete_replica(self, fields):
        block_id, node_id = fields
        if block_id not in self._blocks:
            return Present(KeyError(f"unknown block id {block_id}"))
        if block_id not in self._node_blocks.get(node_id, ()):
            return Present(self._no_copy(block_id, node_id))
        return None

    def apply_delete_replica(self, fields) -> None:
        block_id, node_id = fields
        block = self._blocks[block_id]
        holders = self._holders[block_id]
        index = holders.index(node_id)
        holders = self._holders[block_id] = holders[:index] + holders[index + 1:]
        if not holders and block.stripe_id is not None:
            self._live_members[block.stripe_id] -= 1
        self._node_blocks[node_id].discard(block_id)
        self._primary.discard(fields)
        self._corrupted.discard(fields)
        for callback in self._watchers:
            callback(block)

    def check_relocate(self, fields):
        block_id, src_node, dst_node = fields
        verdict = self.check_place_replica((block_id, dst_node, False))
        held = self._node_blocks.get(src_node, ())
        if verdict is None and block_id not in held:
            return self._no_copy(block_id, src_node)
        return verdict

    def apply_relocate(self, fields) -> None:
        block_id, src_node, dst_node = fields
        self.apply_delete_replica((block_id, src_node))
        self.apply_place_replica((block_id, dst_node, False))

    # The corruption records' fields are the (block_id, node_id) flag.
    def check_mark_corrupted(self, fields):
        block_id, node_id = fields
        if block_id not in self._node_blocks.get(node_id, ()):
            return self._no_copy(block_id, node_id)
        return PRESENT if fields in self._corrupted else None

    def apply_mark_corrupted(self, fields) -> None:
        self._corrupted.add(fields)

    def check_clear_corrupted(self, fields):
        return None if fields in self._corrupted else PRESENT

    def apply_clear_corrupted(self, fields) -> None:
        self._corrupted.discard(fields)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def block(self, block_id: BlockId) -> Block:
        """Return the descriptor for ``block_id``."""
        return self._get_block(block_id)

    def blocks(self) -> Iterator[Block]:
        """Iterate over all registered blocks."""
        return iter(list(self._blocks.values()))

    def __contains__(self, block_id: BlockId) -> bool:
        return block_id in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def is_corrupted(self, block_id: BlockId, node_id: NodeId) -> bool:
        """True when the replica's stored bytes are known-bad."""
        return (block_id, node_id) in self._corrupted

    def corrupted_replicas(self) -> List[Tuple[BlockId, NodeId]]:
        """All flagged (block, node) pairs, deterministically ordered."""
        return sorted(self._corrupted)

    def healthy_replica_nodes(self, block_id: BlockId) -> Tuple[NodeId, ...]:
        """Nodes holding an uncorrupted copy of ``block_id``."""
        return tuple(
            n
            for n in self.replica_nodes(block_id)
            if (block_id, n) not in self._corrupted
        )

    def replicas(self, block_id: BlockId) -> Sequence[Replica]:
        """All current replicas of a block, in placement order."""
        primary = self._primary
        return tuple(
            Replica(block_id, node_id, (block_id, node_id) in primary)
            for node_id in self.replica_nodes(block_id)
        )

    def placements(self) -> Iterator[Tuple[Block, List[List[object]]]]:
        """Every block in id order with ``[node_id, is_primary]`` per
        holder in placement order: :meth:`replicas` of the whole store as
        fresh JSON-shaped lists, read off the stored holder tuples without
        building ``Replica`` objects."""
        blocks, holders, primary = self._blocks, self._holders, self._primary
        for block_id in sorted(blocks):
            yield blocks[block_id], [
                [node_id, (block_id, node_id) in primary]
                for node_id in holders[block_id]
            ]

    def replica_nodes(self, block_id: BlockId) -> Tuple[NodeId, ...]:
        """Node ids currently holding a copy of ``block_id``."""
        try:
            return self._holders[block_id]
        except KeyError:
            raise KeyError(f"unknown block id {block_id}") from None

    def replica_count(self, block_id: BlockId) -> int:
        """How many nodes currently hold a copy of ``block_id``."""
        return len(self.replica_nodes(block_id))

    def replica_racks(self, block_id: BlockId) -> Tuple[RackId, ...]:
        """Rack ids currently holding a copy (duplicates preserved)."""
        return tuple(self.topology.rack_of(n) for n in self.replica_nodes(block_id))

    def primary_node(self, block_id: BlockId) -> Optional[NodeId]:
        """The node holding the first-written replica, if it still exists."""
        for node_id in self.replica_nodes(block_id):
            if (block_id, node_id) in self._primary:
                return node_id
        return None

    def live_members(self, stripe_id: int) -> int:
        """Blocks stamped with ``stripe_id`` that still hold a copy (O(1)).

        Every path that makes a block a stripe member stamps it at creation
        — the ``allocate_block`` and ``encode_stripe`` records of
        :class:`~repro.journal.state.Stores` — so for an encoded stripe
        this is its surviving member count.
        """
        return self._live_members.get(stripe_id, 0)

    def watch(self, callback: Callable[[Block], None]) -> None:
        """Call ``callback(block)`` after each change to a block's copies.

        Fires on every placed and every deleted copy (hence also on
        writes, retention, moves and parity placement), with the block's
        descriptor.
        """
        self._watchers.append(callback)

    def blocks_on_node(self, node_id: NodeId) -> Set[BlockId]:
        """Ids of blocks with a copy on ``node_id``."""
        self.topology.node(node_id)
        return set(self._node_blocks[node_id])

    def blocks_in_rack(self, rack_id: RackId) -> Set[BlockId]:
        """Ids of blocks with at least one copy in ``rack_id``."""
        found: Set[BlockId] = set()
        for node_id in self.topology.nodes_in_rack(rack_id):
            found.update(self._node_blocks[node_id])
        return found

    def replica_count_per_node(self) -> Dict[NodeId, int]:
        """Number of replicas stored on each node (storage load)."""
        return {
            node_id: len(blocks) for node_id, blocks in self._node_blocks.items()
        }

    def replica_count_per_rack(self) -> Dict[RackId, int]:
        """Number of replicas stored in each rack (rack-level storage load)."""
        counts = {rack_id: 0 for rack_id in self.topology.rack_ids()}
        for node_id, blocks in self._node_blocks.items():
            counts[self.topology.rack_of(node_id)] += len(blocks)
        return counts

    def bytes_on_node(self, node_id: NodeId) -> int:
        """Total bytes stored on a node."""
        return sum(self._blocks[b].size for b in self._node_blocks[node_id])

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _get_block(self, block_id: BlockId) -> Block:
        try:
            return self._blocks[block_id]
        except KeyError:
            raise KeyError(f"unknown block id {block_id}") from None

    @staticmethod
    def _no_copy(block_id: BlockId, node_id: NodeId) -> KeyError:
        return KeyError(f"node {node_id} stores no replica of block {block_id}")
