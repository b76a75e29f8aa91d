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
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster.topology import ClusterTopology, NodeId, RackId
from repro.core.maxflow import Dinic
from repro.sim.metrics import PERF

#: One admissible replica of a block as solver edge ids: the S->B, B->N,
#: N->R and R->T edges of its length-4 path to the sink.
_Path = Tuple[int, int, int, int]


class StripeFlowSession:
    """One stripe's Figure 4 network on solver ids, grown block by block.

    EAR redraws the layout of the newest block until the flow graph's max
    flow equals the block count (Section III-B); between attempts only that
    block's edges change.  A session therefore keeps **one** :class:`Dinic`
    solver alive across every attempt of the stripe: accepted blocks' edges
    and their routed flow stay in place, a candidate's edges are added under
    a checkpoint, the solver augments from the previous residual state (at
    most one extra unit can exist, since each block contributes one unit of
    source capacity), and a rejected candidate is rolled back.

    The accept/reject decision is provably identical to the from-scratch
    :meth:`StripeFlowGraph.max_matching_size` test: the pre-attempt flow is
    feasible for the candidate graph, Dinic run to completion from any
    feasible flow reaches the (unique) max-flow value, and reaching
    ``accepted_blocks + 1`` is maximal by the source-side cut.  What changes
    is the counted work — at most one BFS level-graph build per attempt
    instead of a full re-solve, and none when the block has a replica on an
    unused node of a rack below its cap (see :meth:`_push_direct`).

    **Insertion-order invariant.**  Edges enter the solver in one fixed
    order — S->B, then per replica B->N, N->R if the node is new, R->T if
    the rack is new.  The solver visits a vertex's edges in insertion
    order, so this order alone decides *which* maximum matching comes out;
    every retention plan of the repository depends on it.

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

    def __init__(self, graph: "StripeFlowGraph") -> None:
        self.graph = graph
        self._solver = Dinic()
        self._source = self._solver.new_vertex()
        self._sink = self._solver.new_vertex()
        self._layout: Dict[object, List[NodeId]] = {}
        # node -> (N vertex, N->R edge, R->T edge); rack -> (R vertex, R->T
        # edge).  Both grow in insertion order, so undoing an attempt is
        # popping the newest entries.
        self._nodes: Dict[NodeId, Tuple[int, int, int]] = {}
        self._racks: Dict[RackId, Tuple[int, int]] = {}

    @property
    def num_placed(self) -> int:
        """Blocks accepted so far (equals the routed flow)."""
        return len(self._layout)

    def layout(self) -> Dict[object, List[NodeId]]:
        """The accepted layout (block -> replica nodes)."""
        return {block: list(nodes) for block, nodes in self._layout.items()}

    def try_place(self, block: object, node_ids: Sequence[NodeId]) -> bool:
        """Tentatively add one block's replica layout.

        Adds the candidate's edges, augments the retained flow by at most
        one unit, and keeps the edges iff the flow then covers every block
        (the Section III-B acceptance test).  On rejection the graph is
        rolled back to its pre-attempt state, so the caller can redraw.

        Args:
            block: Block label; must not have been accepted already.
            node_ids: The candidate replica nodes for the block.

        Returns:
            True when the block was accepted (edges and flow retained).
        """
        if block in self._layout:
            raise ValueError(f"block {block!r} was already placed")
        solver, nodes, racks = self._solver, self._nodes, self._racks
        token = solver.checkpoint()
        nodes_before, racks_before = len(nodes), len(racks)
        __, paths = self._add_block(node_ids)
        if (
            self._push_direct(paths)
            or solver.solve(self._source, self._sink, limit=1) == 1
        ):
            self._layout[block] = list(node_ids)
            return True
        # A failed augmentation changed no capacity, so the candidate's
        # edges carry no flow and rollback restores the pre-attempt graph.
        solver.rollback(token)
        while len(nodes) > nodes_before:
            nodes.popitem()
        while len(racks) > racks_before:
            racks.popitem()
        return False

    # ------------------------------------------------------------------
    # Network construction (shared with StripeFlowGraph._solve)
    # ------------------------------------------------------------------
    def _add_block(
        self, node_ids: Sequence[NodeId]
    ) -> Tuple[List[NodeId], List[_Path]]:
        """Link one block's vertex and edges, in the invariant order.

        Returns:
            The admissible replica nodes in order (replicas outside the
            target racks cannot be retained: Section III-D removes their
            rack->sink edges; the whole path is simply omitted), and the
            edge ids of each one's path to the sink.
        """
        graph, solver, sink = self.graph, self._solver, self._sink
        nodes, racks = self._nodes, self._racks
        link = solver.link
        block_vertex = solver.new_vertex()
        source_edge = link(self._source, block_vertex, 1)
        admissible: List[NodeId] = []
        paths: List[_Path] = []
        for node_id in node_ids:
            known = nodes.get(node_id)
            if known is not None:
                node_vertex, node_edge, rack_edge = known
                block_edge = link(block_vertex, node_vertex, 1)
            else:
                rack_id = graph.topology.rack_of(node_id)
                if not graph._rack_admissible(rack_id):
                    continue
                rack = racks.get(rack_id)
                rack_vertex = solver.new_vertex() if rack is None else rack[0]
                node_vertex = solver.new_vertex()
                block_edge = link(block_vertex, node_vertex, 1)
                node_edge = link(node_vertex, rack_vertex, 1)
                if rack is None:
                    rack = racks[rack_id] = (
                        rack_vertex,
                        link(rack_vertex, sink, graph.rack_capacity(rack_id)),
                    )
                rack_edge = rack[1]
                nodes[node_id] = (node_vertex, node_edge, rack_edge)
            admissible.append(node_id)
            paths.append((source_edge, block_edge, node_edge, rack_edge))
        return admissible, paths

    def _push_direct(self, paths: Sequence[_Path]) -> bool:
        """Route the newest block's unit over a length-4 path, if one is free.

        When a replica's node is unused and its rack is below its cap, the
        path S->B->N->R->T is what the level-graph DFS would find: every
        S-T path has at least four edges, so the sink sits at level 4,
        anything the DFS enters through an earlier replica (a used node's
        reverse edge, a full rack's reverse edges) lies on a longer path
        and dead-ends without touching a capacity, and the first replica
        in order with a free path is the one it pushes along.  Pushing it
        here gives the same flow state without building the level graph.
        """
        return any(map(self._solver.try_push, paths))


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

    def _greedy_matching(
        self, layout: Dict[object, Sequence[NodeId]]
    ) -> Dict[object, NodeId]:
        """Dinic's first blocking flow from zero, computed without a graph.

        From zero flow every level is forward (S, B, N, R, T), so the first
        phase serves the blocks in order and gives each its first replica
        whose node is unused and whose rack has room; nothing it does is
        ever undone inside the phase.
        """
        rack_of = self.topology.rack_of
        used: Set[NodeId] = set()
        room: Dict[RackId, int] = {}
        matching: Dict[object, NodeId] = {}
        for block, node_ids in layout.items():
            for node_id in node_ids:
                rack_id = rack_of(node_id)  # every replica is validated
                if (
                    block in matching
                    or node_id in used
                    or not self._rack_admissible(rack_id)
                ):
                    continue
                left = room.get(rack_id)
                if left is None:
                    left = self.rack_capacity(rack_id)
                if left > 0:
                    room[rack_id] = left - 1
                    used.add(node_id)
                    matching[block] = node_id
        return matching

    def _solve(
        self, layout: Dict[object, Sequence[NodeId]]
    ) -> Dict[object, NodeId]:
        """The matching a max flow of the layout's network routes (its size
        is the max flow: each served block keeps exactly one replica).

        When the greedy first phase already serves every block, its matching
        is the one Dinic returns (the source cut is saturated, so the solver
        would stop there) and no graph is built.  Otherwise the network is
        built in the invariant order, each block's unit of the first phase
        is pushed as the block is linked (:meth:`StripeFlowSession.
        _push_direct` is the same greedy rule on the residual graph), and
        the solver continues from that flow as Dinic's second phase would.
        """
        matching = self._greedy_matching(layout)
        if len(matching) == len(layout):
            PERF.bump("maxflow.augmentations", len(matching))
            return matching
        network = StripeFlowSession(self)
        solver = network._solver
        replicas = []
        flow = 0
        for node_ids in layout.values():
            replica = network._add_block(node_ids)
            flow += network._push_direct(replica[1])
            replicas.append(replica)
        flow += solver.solve(network._source, network._sink)
        matching = {}
        for block, (node_ids, paths) in zip(layout, replicas):
            for node_id, path in zip(node_ids, paths):
                if solver.edge_flow(path[1]) > 0:
                    matching[block] = node_id
                    break
        if len(matching) != flow:
            raise AssertionError("routed flow and extracted matching disagree")
        return matching

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def session(self) -> StripeFlowSession:
        """A fresh incremental session reusing one solver across redraws."""
        return StripeFlowSession(self)

    def max_matching_size(self, layout: Dict[object, Sequence[NodeId]]) -> int:
        """Size of the maximum matching for the given replica layout.

        Args:
            layout: Mapping block -> node ids of its replicas.

        Returns:
            The max flow of the Figure 4(b) graph; the layout is feasible iff
            this equals ``len(layout)``.
        """
        return len(self._solve(layout))

    def is_feasible(self, layout: Dict[object, Sequence[NodeId]]) -> bool:
        """True when every block can retain a replica within the constraints."""
        return self.max_matching_size(layout) == len(layout)

    def find_matching(
        self, layout: Dict[object, Sequence[NodeId]]
    ) -> Optional[Dict[object, NodeId]]:
        """Extract a retention plan: which replica each block keeps.

        Returns:
            Mapping block -> retained node, or ``None`` when the layout is
            infeasible (max flow below the block count).
        """
        matching = self._solve(layout)
        return matching if len(matching) == len(layout) else None

    def find_partial_matching(
        self, layout: Dict[object, Sequence[NodeId]]
    ) -> Dict[object, NodeId]:
        """Best-effort retention: match as many blocks as the flow allows.

        Unlike :meth:`find_matching` this never returns ``None``; blocks the
        max flow could not serve are simply absent from the result.  Used
        for RR stripes, whose layouts carry no feasibility guarantee.
        """
        return self._solve(layout)

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
