"""Label-keyed reference for the Figure 4 flow graph (test oracle only).

The explicit network: Dinic over hashable vertex labels, rebuilt from
scratch for every query, with no greedy phase.  The production matcher
(:mod:`repro.core.matching`) walks this network's residual graph without
building it and must return the *same matching* (not merely one of the
same size), so the reference inserts edges in the order the matcher
visits them — S->B, then per replica B->N, N->R if the node is new, R->T
if the rack is new — and Dinic visits each vertex's edges in that order.

:func:`ear_redraws_vs_fresh` is the end-to-end counterpart: it replays
every candidate the EAR redraw loop drew against a from-scratch
``RackMatching.solve`` of the accepted layout plus the candidate.

:func:`validate_matching` checks a retention plan against the constraints
themselves, with no flow at all.
"""

import random
from collections import Counter, deque

from repro.cluster.topology import ClusterTopology
from repro.core.ear import EncodingAwareReplication
from repro.core.matching import RackMatching, retention_capacity
from repro.erasure.codec import CodeParams
from repro.sim.metrics import measure_ops

_SOURCE = ("S",)
_SINK = ("T",)


class LabelDinic:
    """Textbook Dinic keyed by vertex labels."""

    def __init__(self):
        self.index = {}
        self.adj = []
        self.to = []
        self.cap = []
        self.orig = []
        self.edge_ids = {}

    def vertex(self, label):
        if label not in self.index:
            self.index[label] = len(self.adj)
            self.adj.append([])
        return self.index[label]

    def add_edge(self, u, v, capacity):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        ui, vi = self.vertex(u), self.vertex(v)
        self.edge_ids.setdefault((u, v), []).append(len(self.to))
        for src, dst, cap in ((ui, vi, capacity), (vi, ui, 0)):
            self.adj[src].append(len(self.to))
            self.to.append(dst)
            self.cap.append(cap)
            self.orig.append(cap)

    def push(self, path):
        """Route one unit along a path of vertex labels."""
        for u, v in zip(path, path[1:]):
            edge = next(e for e in self.edge_ids[(u, v)] if self.cap[e] > 0)
            self.cap[edge] -= 1
            self.cap[edge ^ 1] += 1

    def flow_on(self, u, v):
        return sum(self.orig[e] - self.cap[e] for e in self.edge_ids[(u, v)])

    def max_flow(self, source, sink):
        if source == sink:
            raise ValueError("source and sink must differ")
        if source not in self.index or sink not in self.index:
            return 0
        s, t = self.index[source], self.index[sink]
        total = 0
        while True:
            level = [-1] * len(self.adj)
            level[s] = 0
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for edge in self.adj[u]:
                    v = self.to[edge]
                    if self.cap[edge] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return total
            iters = [0] * len(self.adj)
            while True:
                pushed = self._dfs(s, t, sum(self.orig) + 1, level, iters)
                if pushed == 0:
                    break
                total += pushed

    def _dfs(self, u, t, limit, level, iters):
        if u == t:
            return limit
        while iters[u] < len(self.adj[u]):
            edge = self.adj[u][iters[u]]
            v = self.to[edge]
            if self.cap[edge] > 0 and level[v] == level[u] + 1:
                pushed = self._dfs(
                    v, t, min(limit, self.cap[edge]), level, iters
                )
                if pushed > 0:
                    self.cap[edge] -= pushed
                    self.cap[edge ^ 1] += pushed
                    return pushed
            iters[u] += 1
        return 0


class ReferenceFlowGraph:
    """From-scratch maximum matching and per-rack capacity."""

    def __init__(self, topology, c=1, target_racks=None, capacity_overrides=None):
        self.topology = topology
        self.c = c
        self.target_racks = None if target_racks is None else set(target_racks)
        self.capacity_overrides = dict(capacity_overrides or {})

    def _admissible(self, rack_id):
        return self.target_racks is None or rack_id in self.target_racks

    def capacity(self, rack_id):
        """The rack's R->T capacity; 0 when the network omits the rack."""
        if not self._admissible(rack_id):
            return 0
        return self.capacity_overrides.get(rack_id, self.c)

    def network(self, layout):
        """The layout's network, built in order, carrying no flow."""
        graph = LabelDinic()
        nodes_added, racks_added = set(), set()
        for block, node_ids in layout.items():
            graph.add_edge(_SOURCE, ("B", block), 1)
            for node_id in node_ids:
                rack_id = self.topology.rack_of(node_id)
                if not self._admissible(rack_id):
                    continue
                graph.add_edge(("B", block), ("N", node_id), 1)
                if node_id not in nodes_added:
                    nodes_added.add(node_id)
                    graph.add_edge(("N", node_id), ("R", rack_id), 1)
                if rack_id not in racks_added:
                    racks_added.add(rack_id)
                    graph.add_edge(("R", rack_id), _SINK, self.capacity(rack_id))
        return graph

    def routed(self, graph, layout):
        """The matching the flow in ``graph`` routes, in layout order."""
        matching = {}
        for block, node_ids in layout.items():
            for node_id in node_ids:
                if not self._admissible(self.topology.rack_of(node_id)):
                    continue
                if graph.flow_on(("B", block), ("N", node_id)) > 0:
                    matching[block] = node_id
                    break
        return matching

    def find_partial_matching(self, layout):
        if not layout:
            return {}
        graph = self.network(layout)
        graph.max_flow(_SOURCE, _SINK)
        return self.routed(graph, layout)


class ReferenceSession:
    """EAR's redraw loop on the explicit network.

    Each attempt rebuilds the network of the accepted blocks plus the
    candidate, puts back the flow the last accepted attempt left, and lets
    Dinic route at most one more unit from there.  :attr:`matching` is
    therefore the state an incremental session must be in, not merely a
    matching of the same size.
    """

    def __init__(self, reference):
        self.reference = reference
        self.layout = {}
        self.matching = {}

    def try_place(self, block, node_ids):
        candidate = {**self.layout, block: node_ids}
        graph = self.reference.network(candidate)
        for kept, node_id in self.matching.items():
            rack_id = self.reference.topology.rack_of(node_id)
            graph.push([_SOURCE, ("B", kept), ("N", node_id), ("R", rack_id),
                        _SINK])
        if graph.max_flow(_SOURCE, _SINK) == 0:
            return False
        self.layout = candidate
        self.matching = self.reference.routed(graph, candidate)
        return True


def validate_matching(topology, capacity, layout, matching):
    """Assert that a retention plan satisfies every constraint: it covers
    exactly the layout's blocks, each on a node holding one of its
    replicas, one block per node, and at most ``capacity(rack)`` blocks
    per rack (0 outside the target racks).

    Raises:
        ValueError: Describing the first violated constraint.
    """
    if set(matching) != set(layout):
        raise ValueError("matching must cover exactly the layout's blocks")
    used_nodes = set()
    for block, node_id in matching.items():
        if node_id not in layout[block]:
            raise ValueError(
                f"block {block} retained on node {node_id} without a replica"
            )
        if node_id in used_nodes:
            raise ValueError(f"node {node_id} retains more than one block")
        used_nodes.add(node_id)
    usage = Counter(topology.rack_of(node_id) for node_id in matching.values())
    for rack_id, used in usage.items():
        if used > capacity(rack_id):
            raise ValueError(
                f"rack {rack_id} retains {used} blocks, exceeding its "
                f"capacity {capacity(rack_id)}"
            )


def ear_capacity(policy, stripe):
    """The retention capacity EAR placed ``stripe`` under."""
    return retention_capacity(
        policy.c, stripe.target_racks, stripe.core_rack, policy.core_reserve
    )


def stripe_layouts(decisions):
    """Stripe id -> {block id: replica nodes} of EAR placement decisions."""
    layouts = {}
    for decision in decisions:
        layouts.setdefault(decision.stripe_id, {})[decision.block_id] = (
            decision.node_ids
        )
    return layouts


def ear_retention_plan(policy, stripe, layout):
    """Solve ``stripe``'s layout under the capacity EAR placed it with,
    assert the plan keeps every block and passes :func:`validate_matching`,
    and return it."""
    capacity = ear_capacity(policy, stripe)
    plan = RackMatching(policy.topology.rack_of, capacity).solve(layout)
    validate_matching(policy.topology, capacity, layout, plan)
    return plan


def ear_redraws_vs_fresh(seed, num_blocks, writers=1):
    """Place (14,10) blocks with EAR on the 20x20 cluster, then replay every
    candidate layout it drew against the from-scratch reference.

    The reference is a fresh ``RackMatching.solve``: a candidate for the
    i-th block of a stripe must be accepted iff the accepted layout plus
    the candidate has max flow i.  Block ``b`` is written from node
    ``b % writers``.

    Returns:
        ``(decisions, ops_incremental, ops_fresh)`` — the placement
        decisions and the counted work of the placement and of the replay.

    Raises:
        AssertionError: On the first accept/reject decision that differs.
    """
    drawn = []

    class RecordingEar(EncodingAwareReplication):
        """EAR that remembers every candidate layout it drew."""

        def _draw_candidate(self, core_rack, stripe):
            nodes = super()._draw_candidate(core_rack, stripe)
            drawn.append(nodes)
            return nodes

    ear = RecordingEar(
        ClusterTopology.large_scale(), CodeParams(14, 10),
        rng=random.Random(seed),
    )
    with measure_ops() as incremental:
        decisions = [
            ear.place_block(block_id, writer_node=block_id % writers)
            for block_id in range(num_blocks)
        ]
    draws = iter(drawn)
    kept = {}
    with measure_ops() as fresh:
        for decision in decisions:
            capacity = ear_capacity(ear, ear.store.stripe(decision.stripe_id))
            layout = kept.setdefault(decision.stripe_id, {})
            for attempt in range(1, decision.attempts + 1):
                candidate = {**layout, decision.block_id: next(draws)}
                fresh_matching = RackMatching(ear.topology.rack_of, capacity)
                feasible = len(fresh_matching.solve(candidate)) == len(candidate)
                if feasible != (attempt == decision.attempts):
                    raise AssertionError(
                        "incremental EAR redraw loop diverged from the "
                        "fresh solver"
                    )
            layout[decision.block_id] = list(decision.node_ids)
    return decisions, incremental, fresh
