"""Encoding-aware replication (EAR) — the paper's primary contribution.

EAR jointly places the replicas of the ``k`` data blocks of each future
stripe (Section III):

1. The primary replica of every block lands in the stripe's *core rack*, so
   an encoder running there performs zero cross-rack downloads.
2. The remaining replicas are drawn randomly (as RR would draw them), but a
   layout for the ``i``-th block is accepted only if the stripe's flow graph
   (Figure 4) then has max flow ``i`` — guaranteeing that after encoding a
   retention plan exists with at most ``c`` blocks per rack, i.e. rack-level
   fault tolerance holds without relocation.  Theorem 1 bounds the expected
   number of redraws.
3. Optionally (Section III-D), a stripe is confined to ``R'`` *target racks*
   (``R' >= ceil(n / c)``) to trade rack-failure tolerance for lower
   cross-rack recovery traffic.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.cluster.block import BlockId
from repro.cluster.topology import ClusterTopology, NodeId, RackId
from repro.core.matching import RackMatching, retention_capacity
from repro.sim.metrics import PERF
from repro.core.policy import (
    PlacementDecision,
    PlacementError,
    PlacementPolicy,
    ReplicationScheme,
    TWO_RACKS,
)
from repro.core.stripe import PreEncodingStore, Stripe
from repro.erasure.codec import CodeParams

#: Default bound on layout redraws for one block.  Theorem 1 shows the
#: expected number is tiny (< 2 in the paper's configurations); the cap only
#: guards against misconfiguration.
DEFAULT_MAX_ATTEMPTS = 10_000


class EncodingAwareReplication(PlacementPolicy):
    """Complete EAR (Sections III-A through III-D).

    Args:
        topology: The cluster to place into.
        code: The ``(n, k)`` erasure code the stripes will be encoded with.
        scheme: Replica spread per block (default HDFS 3-way / two racks).
        rng: Seeded random source.
        store: Pre-encoding store to fill; created internally when omitted.
        c: Maximum blocks of one stripe per rack after encoding.  The stripe
            then tolerates ``floor((n - k) / c)`` rack failures.
        num_target_racks: When set, each stripe is confined to this many
            racks (core rack included); must be at least ``ceil(n / c)``.
        max_attempts: Safety cap on layout redraws per block.
        bias_target_racks: When True and target racks are in use, draw the
            non-primary replicas from the target racks directly instead of
            redrawing cluster-wide until one lands there.  Placement is then
            no longer uniform over all racks (an efficiency ablation; the
            faithful default is False).
        reserve_core_for_parity: When True and ``c > 1``, the placement flow
            graph caps the core rack at ``c - min(c - 1, n - k)`` data
            blocks, reserving the remainder for parity blocks at encoding
            time.  Keeping parity in the core rack turns those uploads
            intra-rack — the "keep more data/parity blocks in one rack"
            behaviour behind Figure 13(e).  No effect at ``c = 1``.

    Each open stripe keeps one :class:`~repro.core.matching.RackMatching`
    alive across every redraw, with the capacity of
    :func:`~repro.core.matching.retention_capacity`; a candidate is kept
    iff :meth:`~repro.core.matching.RackMatching.add` can route one more
    unit from the accepted blocks' flow, which is the from-scratch test
    "max flow of the layout equals its block count" without rebuilding
    the graph.  The policy keeps no layout: a placed block's replicas are
    its :class:`PlacementDecision`'s ``node_ids``, and the NameNode's block
    store holds them from then on.

    Example:
        >>> topo = ClusterTopology.large_scale()
        >>> ear = EncodingAwareReplication(topo, CodeParams(14, 10),
        ...                                rng=random.Random(7))
        >>> decision = ear.place_block(block_id=0)
        >>> len(decision.node_ids)
        3
    """

    name = "ear"

    def __init__(
        self,
        topology: ClusterTopology,
        code: CodeParams,
        scheme: ReplicationScheme = TWO_RACKS,
        rng: Optional[random.Random] = None,
        store: Optional[PreEncodingStore] = None,
        c: int = 1,
        num_target_racks: Optional[int] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        bias_target_racks: bool = False,
        reserve_core_for_parity: bool = True,
    ) -> None:
        super().__init__(topology, scheme, rng)
        if c <= 0:
            raise ValueError("c must be positive")
        min_racks = code.min_racks(c)
        if num_target_racks is not None:
            if num_target_racks < min_racks:
                raise ValueError(
                    f"num_target_racks={num_target_racks} cannot hold a stripe "
                    f"of n={code.n} blocks with c={c}; need at least {min_racks}"
                )
            if num_target_racks > topology.num_racks:
                raise ValueError("num_target_racks exceeds the cluster's racks")
        elif topology.num_racks < min_racks:
            raise ValueError(
                f"R={topology.num_racks} racks cannot hold a stripe of "
                f"n={code.n} blocks with c={c}; need R >= {min_racks}"
            )
        if max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        self.code = code
        self.c = c
        self.num_target_racks = num_target_racks
        self.max_attempts = max_attempts
        self.bias_target_racks = bias_target_racks
        self.core_reserve = (
            min(c - 1, code.num_parity) if reserve_core_for_parity else 0
        )
        # The admissible racks must still hold all k data blocks with the
        # core rack partially reserved for parity.
        admissible = (
            num_target_racks if num_target_racks is not None
            else topology.num_racks
        )
        data_capacity = (c - self.core_reserve) + (admissible - 1) * c
        if data_capacity < code.k:
            raise ValueError(
                f"{admissible} admissible racks at c={c} (core reserved down "
                f"to {c - self.core_reserve}) cannot hold k={code.k} data "
                "blocks"
            )
        self.store = store if store is not None else PreEncodingStore(code.k)
        if self.store.k != code.k:
            raise ValueError("store's k disagrees with the code's k")

        self._open_by_rack: Dict[RackId, int] = {}
        self._matchings: Dict[int, RackMatching] = {}
        # attempts[i] collects the redraw counts observed for the i-th block
        # of a stripe (1-indexed), for validating Theorem 1.
        self._attempts_by_index: Dict[int, List[int]] = defaultdict(list)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def place_block(
        self, block_id: BlockId, writer_node: Optional[NodeId] = None,
        join_stripe: bool = True,
    ) -> PlacementDecision:
        """Place one block, redrawing until the flow-graph constraint holds.

        Raises:
            PlacementError: If no qualifying layout is found within
                ``max_attempts`` redraws (indicates a misconfigured cluster,
                e.g. too few racks for the chosen ``c``).
        """
        if writer_node is not None:
            core_rack = self.topology.rack_of(writer_node)
        else:
            core_rack = self._random_rack()
        stripe = self._open_stripe_for(core_rack)
        index = len(stripe.block_ids) + 1  # this block is the i-th of its stripe
        matching = self._matchings.get(stripe.stripe_id)
        if matching is None:
            matching = RackMatching(
                self.topology.rack_of,
                retention_capacity(
                    self.c, stripe.target_racks, core_rack, self.core_reserve
                ),
            )
            self._matchings[stripe.stripe_id] = matching

        draw = self._draw_candidate
        for attempt in range(1, self.max_attempts + 1):
            node_ids = draw(core_rack, stripe)
            if matching.add(block_id, node_ids):
                break
        else:
            PERF.bump("ear.redraw_attempts", self.max_attempts)
            raise PlacementError(
                f"no qualifying layout for block {block_id} (stripe "
                f"{stripe.stripe_id}, index {index}) within "
                f"{self.max_attempts} attempts"
            )
        PERF.bump("ear.redraw_attempts", attempt)

        self._attempts_by_index[index].append(attempt)
        if join_stripe:
            self.store.add_block(stripe.stripe_id, block_id)
        if index == stripe.k:
            del self._open_by_rack[core_rack]
            del self._matchings[stripe.stripe_id]
        return PlacementDecision(
            block_id, tuple(node_ids), core_rack, stripe.stripe_id, attempt
        )

    # ------------------------------------------------------------------
    # Theorem 1 validation
    # ------------------------------------------------------------------
    def attempts_by_index(self) -> Dict[int, List[int]]:
        """Observed redraw counts per block index (Theorem 1 validation)."""
        return {i: list(v) for i, v in self._attempts_by_index.items()}

    def mean_attempts(self, index: int) -> float:
        """Mean observed redraws for the ``index``-th block of a stripe."""
        values = self._attempts_by_index.get(index)
        if not values:
            raise KeyError(f"no placements recorded for block index {index}")
        return sum(values) / len(values)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _open_stripe_for(self, core_rack: RackId) -> Stripe:
        stripe_id = self._open_by_rack.get(core_rack)
        if stripe_id is not None:
            return self.store.stripe(stripe_id)
        target_racks = self._choose_target_racks(core_rack)
        stripe = self.store.new_stripe(core_rack=core_rack, target_racks=target_racks)
        self._open_by_rack[core_rack] = stripe.stripe_id
        return stripe

    def _choose_target_racks(
        self, core_rack: RackId
    ) -> Optional[Tuple[RackId, ...]]:
        if self.num_target_racks is None:
            return None
        others = [r for r in self.topology.rack_ids() if r != core_rack]
        chosen = self.rng.sample(others, self.num_target_racks - 1)
        return tuple(sorted([core_rack, *chosen]))

    def _draw_candidate(self, core_rack: RackId, stripe: Stripe) -> List[NodeId]:
        if not self.bias_target_racks or stripe.target_racks is None:
            return self._draw_layout(core_rack)
        # Biased variant: pick the non-primary racks among the targets only.
        used: List[RackId] = [core_rack]
        nodes = self._random_nodes_in_rack(core_rack, 1)
        candidates = [r for r in stripe.target_racks if r != core_rack]
        rack_sizes = self.topology.rack_sizes
        for group_size in self._group_sizes[1:]:
            remaining = [
                r
                for r in candidates
                if r not in used and rack_sizes[r] >= group_size
            ]
            if not remaining:
                raise PlacementError("too few target racks for the scheme")
            rack = self.rng.choice(remaining)
            used.append(rack)
            nodes.extend(self._random_nodes_in_rack(rack, group_size))
        return nodes
