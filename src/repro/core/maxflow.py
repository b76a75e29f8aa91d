"""Dinic's maximum-flow algorithm on flat integer arrays.

A from-scratch implementation used by :mod:`repro.core.flowgraph` to decide
whether a replica layout admits a maximum matching under the per-rack
capacity constraint (Section III-B).  The graphs involved are tiny (a few
dozen vertices) but are built and solved once per redraw attempt and once
per encoded stripe, so the solver is addressed by **vertex ids and edge
ids**: :meth:`Dinic.new_vertex` and :meth:`Dinic.link` hand out integers,
:meth:`Dinic.solve` runs on them, and :meth:`Dinic.edge_flow` reads the flow
of an edge by the id ``link`` returned.  Edge ``e`` and its residual twin
``e ^ 1`` sit next to each other in ``_to`` / ``_cap``; the twin starts at
capacity 0, so the flow on a forward edge *is* its twin's capacity and no
original-capacity array is kept.

The label API (:meth:`Dinic.add_edge`, :meth:`Dinic.max_flow`,
:meth:`Dinic.flow_on`) is a label -> id dict in front of the same arrays;
tests and :func:`bipartite_max_matching` use it.

Beyond the classic solve, the solver supports the *incremental* workflow of
EAR's redraw loop (Theorem 1): between attempts only the newest block's
edges change, so callers take a :meth:`Dinic.checkpoint` before adding the
candidate edges, augment from the previous residual state (``solve`` with
a ``limit``), and :meth:`Dinic.rollback` on rejection instead of rebuilding
and re-solving the whole graph.  Rollback is sound because a failed
augmentation attempt leaves every capacity untouched — Dinic only commits
capacity changes along complete source-to-sink paths.

Counted work (BFS level-graph builds, augmentations) is reported into
:data:`repro.sim.metrics.PERF` so benchmarks and perf-regression tests can
assert on deterministic operation counts rather than wall time.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.sim.metrics import PERF


class Checkpoint(NamedTuple):
    """A restore point for :meth:`Dinic.rollback`.

    Only valid while no flow has been routed *through* edges added after the
    checkpoint (the incremental-redraw workflow guarantees this: a rejected
    attempt never changed any capacity).
    """

    num_edges: int
    num_vertices: int


class Dinic:
    """Max-flow solver on a directed graph with integer capacities.

    Example (id API, what the flow graph uses):
        >>> g = Dinic()
        >>> s, a, t = g.new_vertex(), g.new_vertex(), g.new_vertex()
        >>> first, second = g.link(s, a, 1), g.link(a, t, 1)
        >>> g.solve(s, t)
        1
        >>> g.edge_flow(first)
        1

    Example (label API):
        >>> g = Dinic()
        >>> g.add_edge("s", "a", 1)
        >>> g.add_edge("a", "t", 1)
        >>> g.max_flow("s", "t")
        1
    """

    def __init__(self) -> None:
        # Adjacency: for each vertex, its edge ids in insertion order.  BFS
        # and DFS visit edges in exactly this order, so the insertion order
        # alone decides *which* maximum flow is found.
        self._adj: List[List[int]] = []
        # Edge arrays: to-vertex and remaining capacity; forward edges are
        # even, each followed by its residual twin.
        self._to: List[int] = []
        self._cap: List[int] = []
        # Label API only: label -> vertex id.
        self._index: Dict[object, int] = {}

    # ------------------------------------------------------------------
    # Graph construction (ids)
    # ------------------------------------------------------------------
    def new_vertex(self) -> int:
        """Add a vertex and return its id."""
        self._adj.append([])
        return len(self._adj) - 1

    def link(self, u: int, v: int, capacity: int) -> int:
        """Add a directed edge ``u -> v`` and return its edge id.

        Linking the same pair twice creates parallel edges, each with its
        own id.
        """
        adj = self._adj
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        if not (0 <= u < len(adj) and 0 <= v < len(adj)):
            raise IndexError(f"unknown vertex id in edge {u} -> {v}")
        to, cap = self._to, self._cap
        edge = len(to)
        adj[u].append(edge)
        to.append(v)
        cap.append(capacity)
        adj[v].append(edge + 1)
        to.append(u)
        cap.append(0)
        return edge

    @property
    def num_vertices(self) -> int:
        """Number of vertices added so far."""
        return len(self._adj)

    # ------------------------------------------------------------------
    # Graph construction (labels)
    # ------------------------------------------------------------------
    def vertex(self, label: object) -> int:
        """Intern a vertex label, returning its id."""
        vertex = self._index.get(label)
        if vertex is None:
            vertex = self._index[label] = self.new_vertex()
        return vertex

    def add_edge(self, u: object, v: object, capacity: int) -> None:
        """Add a directed edge between two labelled vertices.

        Adding the same (u, v) pair twice creates parallel edges; flow_on
        sums the flow over all of them.
        """
        self.link(self.vertex(u), self.vertex(v), capacity)

    # ------------------------------------------------------------------
    # Incremental editing
    # ------------------------------------------------------------------
    def checkpoint(self) -> Checkpoint:
        """A token that :meth:`rollback` restores the graph structure to."""
        return Checkpoint(len(self._to), len(self._adj))

    def rollback(self, token: Checkpoint) -> None:
        """Remove every edge and vertex added since ``token``.

        Raises:
            ValueError: If any edge added after the checkpoint carries flow
                (removing it would silently destroy routed flow; the caller
                should only roll back attempts whose augmentation failed).
        """
        adj, to, cap = self._adj, self._to, self._cap
        num_edges, num_vertices = token
        if len(to) < num_edges or len(adj) < num_vertices:
            raise ValueError("checkpoint is newer than the current graph")
        if any(cap[num_edges + 1::2]):
            raise ValueError(
                "cannot roll back: an edge added after the checkpoint "
                "carries flow"
            )
        # Edges are appended, and each vertex's adjacency list grows at its
        # tail, so removing the newest edges is popping from tails — walk
        # newest-first and each popped id must match.
        for edge in range(len(to) - 1, num_edges - 1, -1):
            if adj[to[edge ^ 1]].pop() != edge:
                raise AssertionError("adjacency tail does not match edge log")
        del to[num_edges:]
        del cap[num_edges:]
        del adj[num_vertices:]
        if self._index:
            self._index = {
                label: vertex
                for label, vertex in self._index.items()
                if vertex < num_vertices
            }

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(self, s: int, t: int, limit: Optional[int] = None) -> int:
        """Route as much additional flow from ``s`` to ``t`` as possible.

        Can be called repeatedly; each call continues from the current
        residual state, so calling twice without modifying the graph returns
        0 the second time.  Use a fresh instance (or :meth:`reset`) for a
        from-scratch solve.

        Args:
            s: Source vertex id.
            t: Sink vertex id.
            limit: When given, stop as soon as this much *additional* flow
                has been routed in this call.  The incremental redraw loop
                passes 1: the structural bound (one unit per block) makes
                reaching the limit a proof of maximality, and stopping early
                skips the final no-more-paths BFS.

        Returns:
            The additional flow routed by this call.
        """
        if s == t:
            raise ValueError("source and sink must differ")
        if not (0 <= s < len(self._adj) and 0 <= t < len(self._adj)):
            raise IndexError(f"unknown vertex id in solve({s}, {t})")
        total = 0
        while limit is None or total < limit:
            level = self._bfs_levels(s, t)
            if level is None:
                break
            iters = [0] * len(level)
            while limit is None or total < limit:
                pushed = self._dfs(
                    s, t, None if limit is None else limit - total, level, iters
                )
                if pushed == 0:
                    break
                total += pushed
        return total

    def try_push(self, path: Sequence[int]) -> bool:
        """Route one unit along ``path`` if every edge on it has capacity.

        For callers that already know an augmenting path — the flow graph
        does whenever a block has a replica on an unused node of a rack
        below its cap — so no level graph has to be built to find it.
        Counts as one augmentation, exactly like a unit found by the DFS.

        Args:
            path: Forward edge ids, chained from source to sink.

        Returns:
            False (and nothing changed) when some edge is saturated.

        Raises:
            ValueError: If the edges are not forward edges that chain.
        """
        to, cap = self._to, self._cap
        for edge in path:
            if cap[edge] <= 0:
                return False
        at = to[path[0] + 1]
        for edge in path:
            if edge & 1 or edge < 0 or to[edge + 1] != at:
                raise ValueError("path is not a chain of forward edges")
            at = to[edge]
        for edge in path:
            cap[edge] -= 1
            cap[edge + 1] += 1
        PERF.bump("maxflow.augmentations")
        return True

    def edge_flow(self, edge: int) -> int:
        """Flow currently routed over the forward edge ``edge``."""
        if edge & 1 or not 0 <= edge < len(self._cap):
            raise KeyError(f"no forward edge with id {edge}")
        return self._cap[edge + 1]

    def reset(self) -> None:
        """Restore all edge capacities, discarding any routed flow."""
        cap = self._cap
        for edge in range(0, len(cap), 2):
            cap[edge] += cap[edge + 1]
            cap[edge + 1] = 0

    # ------------------------------------------------------------------
    # Solving and reading flow (labels)
    # ------------------------------------------------------------------
    def max_flow(
        self, source: object, sink: object, limit: Optional[int] = None
    ) -> int:
        """:meth:`solve` between two labelled vertices (0 if either is
        unknown)."""
        if source not in self._index or sink not in self._index:
            return 0
        return self.solve(self._index[source], self._index[sink], limit)

    def flow_on(self, u: object, v: object) -> int:
        """Total flow routed over the edge(s) ``u -> v`` after a solve.

        Parallel (u, v) edges are summed; earlier revisions reported only
        the first one, silently under-counting parallel layouts.
        """
        ui, vi = self._index.get(u), self._index.get(v)
        edges = [] if ui is None or vi is None else [
            edge
            for edge in self._adj[ui]
            if not edge & 1 and self._to[edge] == vi
        ]
        if not edges:
            raise KeyError(f"no edge {u!r} -> {v!r}")
        return sum(self._cap[edge + 1] for edge in edges)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _bfs_levels(self, s: int, t: int) -> Optional[List[int]]:
        PERF.bump("maxflow.bfs_builds")
        adj, to, cap = self._adj, self._to, self._cap
        level = [-1] * len(adj)
        level[s] = 0
        queue = [s]
        for u in queue:  # grows while it is walked: a FIFO without popleft
            below = level[u] + 1
            for edge in adj[u]:
                if cap[edge] > 0:
                    v = to[edge]
                    if level[v] < 0:
                        level[v] = below
                        queue.append(v)
        return level if level[t] >= 0 else None

    def _dfs(
        self,
        s: int,
        t: int,
        bound: Optional[int],
        level: List[int],
        iters: List[int],
    ) -> int:
        """Push one augmenting path of the level graph; 0 when none is left.

        ``iters[u]`` is the current-arc pointer: it only moves past an edge
        once that edge has dead-ended, and stays on an edge that carried a
        push (which may have capacity left).
        """
        adj, to, cap = self._adj, self._to, self._cap
        path: List[int] = []
        u = s
        while u != t:
            edges = adj[u]
            below = level[u] + 1
            i = iters[u]
            while i < len(edges):
                edge = edges[i]
                if cap[edge] > 0 and level[to[edge]] == below:
                    break
                i += 1
            iters[u] = i
            if i < len(edges):
                path.append(edge)
                u = to[edge]
            elif path:
                u = to[path.pop() ^ 1]
                iters[u] += 1
            else:
                return 0
        pushed = min(cap[edge] for edge in path)
        if bound is not None and bound < pushed:
            pushed = bound
        for edge in path:
            cap[edge] -= pushed
            cap[edge ^ 1] += pushed
        PERF.bump("maxflow.augmentations")
        return pushed


def bipartite_max_matching(
    left: List[object], right: List[object], edges: List[Tuple[object, object]]
) -> Dict[object, object]:
    """Maximum bipartite matching via max-flow (utility / test oracle).

    Args:
        left: Left-side vertex labels.
        right: Right-side vertex labels.
        edges: Admissible (left, right) pairs.

    Returns:
        A maximum matching as a dict ``left_label -> right_label``.
    """
    graph = Dinic()
    source, sink = ("__source__",), ("__sink__",)
    for u in left:
        graph.add_edge(source, ("L", u), 1)
    for v in right:
        graph.add_edge(("R", v), sink, 1)
    for u, v in edges:
        graph.add_edge(("L", u), ("R", v), 1)
    graph.max_flow(source, sink)
    matching: Dict[object, object] = {}
    for u, v in edges:
        if u not in matching and graph.flow_on(("L", u), ("R", v)) > 0:
            matching[u] = v
    return matching
