"""The reference max-flow oracle: classic instances, flow extraction,
max-flow = min-cut, and matchings against brute force.

:class:`tests.core.reference_flow.LabelDinic` is the explicit network the
production matcher is checked against, so it is checked here on its own.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.core.reference_flow import LabelDinic


class TestBasicFlows:
    def test_single_edge(self):
        g = LabelDinic()
        g.add_edge("s", "t", 7)
        assert g.max_flow("s", "t") == 7

    def test_series_bottleneck(self):
        g = LabelDinic()
        g.add_edge("s", "a", 5)
        g.add_edge("a", "t", 3)
        assert g.max_flow("s", "t") == 3

    def test_parallel_paths(self):
        g = LabelDinic()
        g.add_edge("s", "a", 2)
        g.add_edge("a", "t", 2)
        g.add_edge("s", "b", 3)
        g.add_edge("b", "t", 3)
        assert g.max_flow("s", "t") == 5

    def test_classic_augmenting_path_instance(self):
        # The diamond with a cross edge: max flow 2000, needs residuals.
        g = LabelDinic()
        g.add_edge("s", "a", 1000)
        g.add_edge("s", "b", 1000)
        g.add_edge("a", "b", 1)
        g.add_edge("a", "t", 1000)
        g.add_edge("b", "t", 1000)
        assert g.max_flow("s", "t") == 2000

    def test_disconnected(self):
        g = LabelDinic()
        g.add_edge("s", "a", 4)
        g.add_edge("b", "t", 4)
        assert g.max_flow("s", "t") == 0

    def test_unknown_vertices(self):
        g = LabelDinic()
        g.add_edge("s", "a", 1)
        assert g.max_flow("s", "missing") == 0

    def test_same_source_sink_rejected(self):
        g = LabelDinic()
        g.add_edge("s", "t", 1)
        with pytest.raises(ValueError):
            g.max_flow("s", "s")

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LabelDinic().add_edge("a", "b", -1)

    def test_zero_capacity_edge(self):
        g = LabelDinic()
        g.add_edge("s", "t", 0)
        assert g.max_flow("s", "t") == 0


class TestFlowExtraction:
    def test_flow_on(self):
        g = LabelDinic()
        g.add_edge("s", "a", 2)
        g.add_edge("a", "t", 1)
        g.max_flow("s", "t")
        assert g.flow_on("s", "a") == 1
        assert g.flow_on("a", "t") == 1

    def test_flow_on_sums_parallel_edges(self):
        # With two parallel (u, v) edges both carrying flow, flow_on must
        # report their sum, not just the first edge's flow.
        g = LabelDinic()
        g.add_edge("s", "a", 1)
        g.add_edge("s", "a", 1)
        g.add_edge("a", "t", 2)
        assert g.max_flow("s", "t") == 2
        assert g.flow_on("s", "a") == 2
        assert g.flow_on("a", "t") == 2

    def test_flow_on_parallel_edges_partial_use(self):
        g = LabelDinic()
        g.add_edge("s", "a", 3)
        g.add_edge("s", "a", 3)
        g.add_edge("a", "t", 4)
        assert g.max_flow("s", "t") == 4
        assert g.flow_on("s", "a") == 4

    def test_flow_on_unknown_edge(self):
        g = LabelDinic()
        g.add_edge("s", "t", 1)
        with pytest.raises(KeyError):
            g.flow_on("t", "s")

    def test_conservation(self, rng):
        g = LabelDinic()
        edges = []
        vertices = list(range(8))
        for __ in range(25):
            u, v = rng.sample(vertices, 2)
            cap = rng.randrange(1, 6)
            g.add_edge(("v", u), ("v", v), cap)
            edges.append((("v", u), ("v", v)))
        g.add_edge("s", ("v", 0), 100)
        g.add_edge(("v", 7), "t", 100)
        total = g.max_flow("s", "t")
        assert total >= 0
        # Flow conservation at every internal vertex.
        for w in vertices:
            inflow = sum(
                g.flow_on(u, v) for u, v in set(edges) if v == ("v", w)
            )
            outflow = sum(
                g.flow_on(u, v) for u, v in set(edges) if u == ("v", w)
            )
            if w == 0:
                inflow += g.flow_on("s", ("v", 0))
            if w == 7:
                outflow += g.flow_on(("v", 7), "t")
            assert inflow == outflow


@given(seed=st.integers(0, 2**16))
@settings(max_examples=50, deadline=None)
def test_max_flow_equals_min_cut(seed):
    r = random.Random(seed)
    g = LabelDinic()
    vertices = ["s", "t", *range(r.randrange(1, 8))]
    for __ in range(r.randrange(1, 25)):
        u, v = r.sample(vertices, 2)
        g.add_edge(u, v, r.randrange(0, 6))
    total = g.max_flow("s", "t")
    # The vertices still reachable from s in the residual graph form the
    # source side of a cut whose capacity is exactly the flow.
    if "s" not in g.index:
        assert total == 0
        return
    side = {g.index["s"]}
    frontier = [g.index["s"]]
    while frontier:
        u = frontier.pop()
        for edge in g.adj[u]:
            if g.cap[edge] > 0 and g.to[edge] not in side:
                side.add(g.to[edge])
                frontier.append(g.to[edge])
    assert g.index.get("t") not in side
    cut = sum(
        g.orig[edge]
        for u in side
        for edge in g.adj[u]
        if not edge & 1 and g.to[edge] not in side
    )
    assert cut == total


def max_matching(left, right, edges):
    """A maximum bipartite matching routed by the oracle."""
    graph = LabelDinic()
    for u in left:
        graph.add_edge("s", ("L", u), 1)
    for v in right:
        graph.add_edge(("R", v), "t", 1)
    for u, v in edges:
        graph.add_edge(("L", u), ("R", v), 1)
    graph.max_flow("s", "t")
    return {u: v for u, v in edges if graph.flow_on(("L", u), ("R", v))}


def brute_force_matching_size(left, right, edges):
    """Exponential-time maximum matching for small instances."""
    best = 0
    edge_list = list(edges)
    for size in range(len(edge_list), 0, -1):
        if size <= best:
            break
        for subset in itertools.combinations(edge_list, size):
            lefts = [e[0] for e in subset]
            rights = [e[1] for e in subset]
            if len(set(lefts)) == size and len(set(rights)) == size:
                best = max(best, size)
                break
    return best


class TestBipartiteMatching:
    def test_perfect_matching(self):
        matching = max_matching(
            [0, 1, 2], ["a", "b", "c"],
            [(0, "a"), (1, "b"), (2, "c"), (0, "b")],
        )
        assert len(matching) == 3

    def test_blocked_matching(self):
        # Two lefts compete for one right.
        matching = max_matching([0, 1], ["a"], [(0, "a"), (1, "a")])
        assert len(matching) == 1

    def test_matching_edges_are_valid(self):
        edges = [(0, "a"), (0, "b"), (1, "a")]
        matching = max_matching([0, 1], ["a", "b"], edges)
        for left, right in matching.items():
            assert (left, right) in edges
        assert len(set(matching.values())) == len(matching)

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_property_matches_brute_force(self, seed):
        r = random.Random(seed)
        left = list(range(r.randrange(1, 6)))
        right = list("abcdef"[: r.randrange(1, 6)])
        edges = sorted(
            {
                (r.choice(left), r.choice(right))
                for __ in range(r.randrange(1, 10))
            }
        )
        matching = max_matching(left, right, edges)
        assert len(matching) == brute_force_matching_size(left, right, edges)
