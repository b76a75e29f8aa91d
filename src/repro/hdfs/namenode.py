"""The NameNode: metadata, placement, and the pre-encoding store.

The paper's first HDFS modification (Section IV-B) adds the EAR placement
algorithm and a *pre-encoding store* to the NameNode.  This model owns:

* the :class:`~repro.cluster.block.BlockStore` (block -> replica locations);
* the pluggable :class:`~repro.core.policy.PlacementPolicy`;
* the :class:`~repro.core.stripe.PreEncodingStore` mapping stripes to block
  lists (filled by EAR at placement time, by RR in metadata order).
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.cluster.block import Block, BlockId, BlockStore
from repro.cluster.topology import ClusterTopology, NodeId, RackId, DEFAULT_BLOCK_SIZE
from repro.core.ear import EncodingAwareReplication
from repro.core.parity import EARPlanner, EncodingPlanner, RRPlanner
from repro.core.policy import PlacementDecision, PlacementPolicy
from repro.core.random_replication import RandomReplication
from repro.core.stripe import PreEncodingStore, Stripe
from repro.erasure.codec import CodeParams
from repro.journal.state import Stores


class NameNode:
    """Metadata server binding a placement policy to the block store.

    Args:
        topology: Cluster layout.
        policy: Placement policy (RR, preliminary EAR, or EAR).  The policy
            must expose a ``store`` attribute (its pre-encoding store) to
            participate in encoding; both shipped policies do when
            configured with one.
        block_size: Default size of allocated blocks (64 MB).

    Example:
        >>> topo = ClusterTopology.large_scale()
        >>> code = CodeParams(14, 10)
        >>> ear = EncodingAwareReplication(topo, code, rng=random.Random(1))
        >>> namenode = NameNode(topo, ear)
        >>> block, decision = namenode.allocate_block()
        >>> namenode.block_locations(block.block_id) == decision.node_ids
        True
    """

    def __init__(
        self,
        topology: ClusterTopology,
        policy: PlacementPolicy,
        block_size: int = DEFAULT_BLOCK_SIZE,
        journal=None,
    ) -> None:
        self.topology = topology
        self.policy = policy
        self.block_size = block_size
        self.block_store = BlockStore(topology)
        self.journal = journal
        if journal is None:
            self.stores = Stores(
                blocks=self.block_store, stripes=self.pre_encoding_store
            )
        else:
            journal.attach(
                block_store=self.block_store,
                stripe_store=self.pre_encoding_store,
            )
            self.stores = journal.stores

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def allocate_block(
        self,
        size: Optional[int] = None,
        writer_node: Optional[NodeId] = None,
    ) -> Tuple[Block, PlacementDecision]:
        """Run the placement policy for the next block id, then commit the
        write as one ``allocate_block`` record: the block (stamped with
        its stripe), its stripe membership and its replicas."""
        block_id = self.block_store.next_block_id
        decision = self.policy.place_block(
            block_id, writer_node=writer_node, join_stripe=False
        )
        block = self.stores.allocate_block(
            block_id, self.block_size if size is None else size,
            decision.stripe_id, decision.node_ids,
        )
        return block, decision

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def block_locations(self, block_id: BlockId) -> Tuple[NodeId, ...]:
        """Replica locations of a block (what clients ask the NameNode)."""
        return self.block_store.replica_nodes(block_id)

    @property
    def pre_encoding_store(self) -> Optional[PreEncodingStore]:
        """The stripe registry, when the policy maintains one."""
        return getattr(self.policy, "store", None)

    def sealed_stripes(self) -> List[Stripe]:
        """Stripes eligible for encoding, in sealing order."""
        store = self.pre_encoding_store
        if store is None:
            return []
        return store.sealed_stripes()

    def stripe_of(self, block_id: BlockId) -> Optional[Stripe]:
        """The stripe a data or parity block belongs to, if any.

        Data blocks resolve through the pre-encoding store's membership
        index; parity blocks (created at encode time, never registered
        there) through the ``stripe_id`` stamped on the block itself.
        """
        store = self.pre_encoding_store
        if store is None:
            return None
        stripe = store.stripe_of_block(block_id)
        if stripe is not None:
            return stripe
        stripe_id = self.block_store.block(block_id).stripe_id
        if stripe_id is None:
            return None
        try:
            return store.stripe(stripe_id)
        except KeyError:
            return None

    # ------------------------------------------------------------------
    # Encoding support
    # ------------------------------------------------------------------
    def make_planner(
        self,
        code: CodeParams,
        rng: Optional[random.Random] = None,
        reserve_core_for_parity: Optional[bool] = None,
    ) -> EncodingPlanner:
        """Build the encoding planner matching the configured policy.

        ``reserve_core_for_parity`` defaults to whatever the EAR policy was
        configured with, keeping placement and encoding consistent.
        """
        if isinstance(self.policy, EncodingAwareReplication):
            if reserve_core_for_parity is None:
                reserve_core_for_parity = self.policy.core_reserve > 0
            return EARPlanner(
                self.topology,
                self.block_store,
                code,
                c=self.policy.c,
                rng=rng,
                reserve_core_for_parity=reserve_core_for_parity,
            )
        return RRPlanner(self.topology, self.block_store, code, rng=rng)

    def record_encoding(self, stripe: Stripe, plan) -> List[Block]:
        """Apply an :class:`~repro.core.parity.EncodingPlan` to the metadata.

        Creates the parity blocks at their planned nodes, deletes the
        redundant data replicas, and marks the stripe encoded.

        Concurrent failures may have removed replicas the plan wanted to
        retain (a node died while the encode was in flight).  In that case
        the block keeps an arbitrary surviving replica instead — the
        resulting layout may violate rack fault tolerance, which the
        PlacementMonitor then flags, exactly as in real HDFS.

        The whole commit is one ``encode_stripe`` record
        (:meth:`~repro.journal.state.Stores.encode_stripe`), so a crash
        leaves the stripe either sealed with every replica or encoded.

        Returns:
            The created parity blocks, in stripe order.
        """
        return self.stores.encode_stripe(
            stripe.stripe_id, plan.parity_nodes, self.block_size,
            plan.retained.items(),
        )
