"""Random replication (RR) — HDFS's default policy, the paper's baseline.

RR places every block independently: the primary replica lands on a random
node of a random rack and the remaining copies follow the replication scheme
(by default, two more copies on distinct nodes of one other random rack).
Because blocks are placed independently of the stripes they will later join,
the encoding operation must fetch most data blocks across racks
(Section II-B) and the surviving replicas usually violate rack-level fault
tolerance, forcing relocation.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.cluster.block import BlockId
from repro.cluster.topology import ClusterTopology, NodeId
from repro.core.policy import (
    PlacementDecision,
    PlacementPolicy,
    ReplicationScheme,
    TWO_RACKS,
)
from repro.core.stripe import PreEncodingStore


class RandomReplication(PlacementPolicy):
    """HDFS default placement: independent, uniformly random replica layout.

    Args:
        topology: The cluster to place into.
        scheme: Replica spread (default HDFS 3-way / two racks).
        rng: Seeded random source for reproducibility.
        store: Optional pre-encoding store.  When given, consecutive data
            blocks are grouped into stripes of ``k`` in write order, which is
            exactly how the RaidNode forms stripes under RR ("groups every k
            data blocks into stripes", Section IV-A).
    """

    name = "rr"

    def __init__(
        self,
        topology: ClusterTopology,
        scheme: ReplicationScheme = TWO_RACKS,
        rng: Optional[random.Random] = None,
        store: Optional[PreEncodingStore] = None,
    ) -> None:
        super().__init__(topology, scheme, rng)
        self.store = store
        self._open_stripe_id: Optional[int] = None

    def place_block(
        self, block_id: BlockId, writer_node: Optional[NodeId] = None,
        join_stripe: bool = True,
    ) -> PlacementDecision:
        """Place one block on randomly chosen racks and nodes.

        The ``writer_node`` hint pins the primary replica's rack (HDFS writes
        the first copy locally); otherwise the primary rack is uniform.
        """
        if writer_node is not None:
            first_rack = self.topology.rack_of(writer_node)
        else:
            first_rack = self._random_rack()
        node_ids = self._draw_layout(first_rack)
        stripe_id = None
        if self.store is not None:
            stripe_id = self._assign_stripe(block_id, join_stripe)
        return PlacementDecision(block_id, tuple(node_ids), None, stripe_id)

    def _assign_stripe(self, block_id: BlockId, join_stripe: bool) -> int:
        """Group every k consecutive data blocks into one stripe."""
        assert self.store is not None
        if self._open_stripe_id is None:
            self._open_stripe_id = self.store.new_stripe().stripe_id
        stripe = self.store.stripe(self._open_stripe_id)
        index = len(stripe.block_ids) + 1
        if join_stripe:
            self.store.add_block(stripe.stripe_id, block_id)
        if index == stripe.k:
            self._open_stripe_id = None
        return stripe.stripe_id
