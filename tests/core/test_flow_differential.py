"""The implicit-graph matcher versus the explicit reference network.

``RackMatching.add``'s accept/reject decisions and the matching it
carries after each one, and the exact matchings of ``RackMatching.solve``
(full or partial), are compared with :mod:`tests.core.reference_flow`
over random small clusters: every ``c``, target racks, per-rack capacity
overrides (zero included), replicas sharing a rack and duplicate node ids
inside one block's layout.  The matcher runs under the reference's own
per-rack capacity.  Equal matchings mean the matcher visits the residual
graph in Dinic's order on the network built block by block.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import ClusterTopology
from repro.core.matching import RackMatching

from tests.core.reference_flow import ReferenceFlowGraph, ReferenceSession


def matcher(topology, reference):
    return RackMatching(topology.rack_of, reference.capacity)


@st.composite
def flow_cases(draw):
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=6))
    topology = ClusterTopology(nodes_per_rack=sizes)
    racks = list(topology.rack_ids())
    c = draw(st.integers(1, 3))
    target_racks = draw(
        st.none()
        | st.lists(st.sampled_from(racks), min_size=1, unique=True)
    )
    capacity_overrides = draw(
        st.none()
        | st.dictionaries(st.sampled_from(racks), st.integers(0, 3), max_size=3)
    )
    node = st.integers(0, topology.num_nodes - 1)
    # Plain lists: replicas may share a rack and may repeat a node id.
    replicas = st.lists(node, min_size=1, max_size=4)
    blocks = draw(st.lists(replicas, min_size=1, max_size=10))
    return topology, (c, target_racks, capacity_overrides), blocks


@given(case=flow_cases())
@settings(max_examples=500, deadline=None)
def test_session_accepts_exactly_what_the_reference_accepts(case):
    topology, args, blocks = case
    reference = ReferenceSession(ReferenceFlowGraph(topology, *args))
    matching = matcher(topology, reference.reference)
    for block, nodes in enumerate(blocks):
        assert matching.add(block, nodes) == reference.try_place(block, nodes)
        assert matching._place == reference.matching
        assert list(matching._replicas) == list(reference.layout)


@given(case=flow_cases())
@settings(max_examples=500, deadline=None)
def test_matchings_equal_the_reference_matchings(case):
    topology, args, blocks = case
    reference = ReferenceFlowGraph(topology, *args)
    layout = dict(enumerate(blocks))
    assert matcher(topology, reference).solve(layout) == (
        reference.find_partial_matching(layout)
    )


@given(case=flow_cases(), data=st.data())
@settings(max_examples=500, deadline=None)
def test_rejections_interleave_with_acceptances(case, data):
    """EAR's redraw loop: each block is offered candidates until one is
    kept, so rejected candidates sit between accepted ones and the session
    must carry on from exactly the accepted state each time."""
    topology, args, blocks = case
    reference = ReferenceSession(ReferenceFlowGraph(topology, *args))
    matching = matcher(topology, reference.reference)
    node = st.integers(0, topology.num_nodes - 1)
    for block, first in enumerate(blocks):
        redraws = data.draw(
            st.lists(st.lists(node, min_size=1, max_size=3), max_size=3)
        )
        for nodes in [first, *redraws]:
            kept = reference.try_place(block, nodes)
            assert matching.add(block, nodes) == kept
            assert matching._place == reference.matching
            if kept:
                break
    assert list(matching._replicas) == list(reference.layout)
