"""The stripe flow graph of Figure 4: blocks -> nodes -> racks -> sink.

Given the replica layout of the (partial) stripe, the graph decides whether
the layout admits a *retention plan*: one replica kept per block, at most one
block per node, at most ``c`` blocks of the stripe per rack, and (optionally)
all retained replicas inside a chosen set of target racks (Section III-D).

Construction, following Section III-B exactly:

* source ``S`` -> each block vertex, capacity 1 (each block keeps one copy);
* block vertex -> node vertex for every replica of the block, capacity 1;
* node vertex -> its rack vertex, capacity 1 (≤ 1 stripe block per node);
* rack vertex -> sink ``T``, capacity ``c`` (≤ c stripe blocks per rack),
  with non-target racks omitted entirely in the target-rack variant.

The layout is *feasible* iff the max flow equals the number of blocks; the
retained replica of each block is the block->node edge carrying flow.
:class:`~repro.core.matching.RackMatching` computes that flow on the
network's residual graph without building the network.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.cluster.topology import ClusterTopology, NodeId, RackId
from repro.core.matching import RackMatching


class StripeFlowSession:
    """One stripe's layout, grown block by block through EAR's redraws
    (Section III-B).  The accepted blocks' matching stays alive across
    attempts, so an attempt costs at most one level BFS, and the decisions
    are those of the from-scratch :meth:`StripeFlowGraph.max_matching_size`.

    Example:
        >>> topo = ClusterTopology(nodes_per_rack=2, num_racks=4)
        >>> session = StripeFlowGraph(topo, c=1).session()
        >>> session.try_place(0, (0, 1))    # both replicas in rack 0
        True
        >>> session.try_place(1, (1,))      # would need rack 0 twice (c=1)
        False
        >>> session.num_placed
        1
    """

    def __init__(self, matching: RackMatching) -> None:
        self._matching = matching
        self._layout: Dict[object, List[NodeId]] = {}

    @property
    def num_placed(self) -> int:
        """Blocks accepted so far."""
        return len(self._layout)

    def layout(self) -> Dict[object, List[NodeId]]:
        """The accepted layout (block -> replica nodes)."""
        return {block: list(nodes) for block, nodes in self._layout.items()}

    def try_place(self, block: object, node_ids: Sequence[NodeId]) -> bool:
        """Keep ``block`` iff it and every accepted block can each still
        retain a replica; a rejected candidate leaves no trace.  Raises
        ``ValueError`` if ``block`` was already accepted."""
        if block in self._layout:
            raise ValueError(f"block {block!r} was already placed")
        if not self._matching.add(block, node_ids):
            return False
        self._layout[block] = list(node_ids)
        return True


class StripeFlowGraph:
    """Feasibility test and matching extraction for one stripe's replicas.

    Args:
        topology: Cluster layout (to map nodes to racks).
        c: Maximum blocks of the stripe a single rack may hold after
            encoding.
        target_racks: Optional restriction of retained replicas to this rack
            set (Section III-D); ``None`` admits every rack.
        capacity_overrides: Optional per-rack capacities replacing ``c`` for
            specific racks.  The encoding planner uses this to reserve part
            of the core rack's capacity for parity blocks (keeping
            data/parity in one rack to cut cross-rack uploads, the behaviour
            Figure 13(e) exploits when ``c > 1``).

    Example:
        >>> topo = ClusterTopology(nodes_per_rack=2, num_racks=4)
        >>> graph = StripeFlowGraph(topo, c=1)
        >>> layout = {0: (0, 2), 1: (1, 4)}   # block -> replica nodes
        >>> graph.max_matching_size(layout)
        2
    """

    def __init__(
        self,
        topology: ClusterTopology,
        c: int = 1,
        target_racks: Optional[Sequence[RackId]] = None,
        capacity_overrides: Optional[Dict[RackId, int]] = None,
    ) -> None:
        if c <= 0:
            raise ValueError("c must be positive")
        self.topology = topology
        self.c = c
        self.target_racks: Optional[Set[RackId]] = (
            None if target_racks is None else set(target_racks)
        )
        if self.target_racks is not None:
            for rack in self.target_racks:
                topology.rack(rack)
        self.capacity_overrides: Dict[RackId, int] = dict(capacity_overrides or {})
        for rack, capacity in self.capacity_overrides.items():
            topology.rack(rack)
            if capacity < 0:
                raise ValueError(f"capacity override for rack {rack} is negative")

    # ------------------------------------------------------------------
    def _rack_admissible(self, rack_id: RackId) -> bool:
        return self.target_racks is None or rack_id in self.target_racks

    def rack_capacity(self, rack_id: RackId) -> int:
        """Blocks of this stripe the rack may retain (``c`` unless overridden)."""
        return self.capacity_overrides.get(rack_id, self.c)

    def _retainable(self, rack_id: RackId) -> int:
        """Blocks of this stripe the rack may retain; 0 outside the targets."""
        return self.rack_capacity(rack_id) if self._rack_admissible(rack_id) else 0

    def _matcher(self) -> RackMatching:
        return RackMatching(self.topology.rack_of, self._retainable)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def session(self) -> StripeFlowSession:
        """A fresh incremental session for EAR's redraw loop."""
        return StripeFlowSession(self._matcher())

    def find_partial_matching(
        self, layout: Dict[object, Sequence[NodeId]]
    ) -> Dict[object, NodeId]:
        """Best-effort retention: the block -> node matching a max flow of
        the layout's Figure 4(b) graph routes, in layout order.

        Blocks the flow could not serve are absent.  Used directly for RR
        stripes, whose layouts carry no feasibility guarantee.
        """
        return self._matcher().solve(layout)

    def find_matching(
        self, layout: Dict[object, Sequence[NodeId]]
    ) -> Optional[Dict[object, NodeId]]:
        """A retention plan (which replica each block keeps), or ``None``
        when the layout is infeasible."""
        matching = self.find_partial_matching(layout)
        return matching if len(matching) == len(layout) else None

    def max_matching_size(self, layout: Dict[object, Sequence[NodeId]]) -> int:
        """The max flow; the layout is feasible iff it equals ``len(layout)``."""
        return len(self.find_partial_matching(layout))

    def is_feasible(self, layout: Dict[object, Sequence[NodeId]]) -> bool:
        """True when every block can retain a replica within the constraints."""
        return self.max_matching_size(layout) == len(layout)

    def rack_usage(self, matching: Dict[object, NodeId]) -> Dict[RackId, int]:
        """Blocks retained per rack under a retention plan."""
        usage: Dict[RackId, int] = {}
        for node_id in matching.values():
            rack_id = self.topology.rack_of(node_id)
            usage[rack_id] = usage.get(rack_id, 0) + 1
        return usage

    def validate_matching(
        self, layout: Dict[object, Sequence[NodeId]], matching: Dict[object, NodeId]
    ) -> None:
        """Assert that a retention plan satisfies every constraint.

        Raises:
            ValueError: Describing the first violated constraint.
        """
        if set(matching) != set(layout):
            raise ValueError("matching must cover exactly the layout's blocks")
        used_nodes: Set[NodeId] = set()
        for block, node_id in matching.items():
            if node_id not in layout[block]:
                raise ValueError(
                    f"block {block} retained on node {node_id} without a replica"
                )
            if node_id in used_nodes:
                raise ValueError(f"node {node_id} retains more than one block")
            used_nodes.add(node_id)
            rack_id = self.topology.rack_of(node_id)
            if not self._rack_admissible(rack_id):
                raise ValueError(f"rack {rack_id} is not a target rack")
        for rack_id, used in self.rack_usage(matching).items():
            capacity = self.rack_capacity(rack_id)
            if used > capacity:
                raise ValueError(
                    f"rack {rack_id} retains {used} blocks, exceeding its "
                    f"capacity {capacity}"
                )
