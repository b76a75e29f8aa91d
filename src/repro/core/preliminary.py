"""The preliminary EAR of Section III-A.

Preliminary EAR only ensures the *performance* goal: every data block of a
stripe keeps its first replica in the stripe's core rack, so an encoder in
the core rack downloads nothing across racks.  The remaining replicas are
placed exactly as RR places them — and therein lies the availability flaw the
paper analyses: with high probability (Equation 1, Figure 3) the surviving
replicas cannot satisfy rack-level fault tolerance without relocation.

This policy exists to reproduce that analysis; production use should prefer
:class:`repro.core.ear.EncodingAwareReplication`.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.cluster.block import BlockId
from repro.cluster.topology import ClusterTopology, NodeId, RackId
from repro.core.policy import (
    PlacementDecision,
    PlacementPolicy,
    ReplicationScheme,
    TWO_RACKS,
)
from repro.core.stripe import PreEncodingStore, Stripe


class PreliminaryEAR(PlacementPolicy):
    """Core-rack placement without availability validation (Section III-A).

    Args:
        topology: The cluster to place into.
        k: Data blocks per stripe (stripes seal at this size).
        scheme: Replica spread (default HDFS 3-way / two racks).
        rng: Seeded random source.
        store: Pre-encoding store to fill; created internally when omitted.
    """

    name = "preliminary-ear"

    def __init__(
        self,
        topology: ClusterTopology,
        k: int,
        scheme: ReplicationScheme = TWO_RACKS,
        rng: Optional[random.Random] = None,
        store: Optional[PreEncodingStore] = None,
    ) -> None:
        super().__init__(topology, scheme, rng)
        self.store = store if store is not None else PreEncodingStore(k)
        if self.store.k != k:
            raise ValueError("store's k disagrees with the policy's k")
        self.k = k
        # One open stripe per core rack at a time (Section III-A: "each rack
        # in the CFS can be viewed as a core rack for a stripe").
        self._open_by_rack: Dict[RackId, int] = {}

    def place_block(
        self, block_id: BlockId, writer_node: Optional[NodeId] = None,
        join_stripe: bool = True,
    ) -> PlacementDecision:
        """Place the primary replica in the core rack, the rest as RR."""
        if writer_node is not None:
            core_rack = self.topology.rack_of(writer_node)
        else:
            core_rack = self._random_rack()
        stripe = self._open_stripe_for(core_rack)
        node_ids = self._draw_layout(core_rack)
        index = len(stripe.block_ids) + 1
        if join_stripe:
            self.store.add_block(stripe.stripe_id, block_id)
        if index == stripe.k:
            del self._open_by_rack[core_rack]
        return PlacementDecision(
            block_id=block_id,
            node_ids=tuple(node_ids),
            core_rack=core_rack,
            stripe_id=stripe.stripe_id,
            attempts=1,
        )

    def _open_stripe_for(self, core_rack: RackId) -> Stripe:
        stripe_id = self._open_by_rack.get(core_rack)
        if stripe_id is None:
            stripe = self.store.new_stripe(core_rack=core_rack)
            self._open_by_rack[core_rack] = stripe.stripe_id
            return stripe
        return self.store.stripe(stripe_id)
