"""The Figure 4 feasibility test and matching extraction: ``RackMatching``
under the capacity of ``retention_capacity``, and the test-side checker."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import ClusterTopology
from repro.core.matching import RackMatching, retention_capacity

from tests.core.reference_flow import ReferenceFlowGraph, validate_matching


@pytest.fixture
def topo():
    # Figure 4's cluster: eight nodes evenly grouped into four racks.
    return ClusterTopology(nodes_per_rack=2, num_racks=4)


def solve(topology, layout, *args, **kwargs):
    """The maximum matching under ``retention_capacity(*args, **kwargs)``."""
    capacity = retention_capacity(*args, **kwargs)
    return RackMatching(topology.rack_of, capacity).solve(layout)


class TestFeasibility:
    def test_paper_figure4_layout(self, topo):
        """The worked example of Section III-B: three blocks, (4,3), c=1."""
        # Rack r holds nodes 2r and 2r+1.  Give each block a replica in the
        # core rack (rack 0) and two in some other rack.
        layout = {
            "b1": (0, 2, 3),   # core + rack 1
            "b2": (1, 4, 5),   # core + rack 2
            "b3": (0, 6, 7),   # core + rack 3
        }
        matching = solve(topo, layout, 1)
        assert len(matching) == 3
        validate_matching(topo, retention_capacity(1), layout, matching)

    def test_collision_infeasible_at_c1(self, topo):
        # All three blocks' spare replicas in rack 1: only core + rack 1
        # available, so at most 2 blocks can be retained with c = 1.
        layout = {
            "b1": (0, 2, 3),
            "b2": (1, 2, 3),
            "b3": (0, 2, 3),
        }
        assert len(solve(topo, layout, 1)) == 2

    def test_collision_feasible_at_c2(self, topo):
        layout = {
            "b1": (0, 2, 3),
            "b2": (1, 2, 3),
            "b3": (0, 2, 3),
        }
        assert len(solve(topo, layout, 2)) == 3

    def test_node_capacity_binds(self, topo):
        # Two blocks whose only replicas share one node.
        layout = {"b1": (0,), "b2": (0,)}
        assert len(solve(topo, layout, 4)) == 1

    def test_empty_layout(self, topo):
        assert solve(topo, {}, 1) == {}

    def test_c_must_be_positive(self):
        with pytest.raises(ValueError, match="c must be positive"):
            retention_capacity(0)


class TestTargetRacks:
    def test_figure6_target_racks(self):
        """Section III-D: (6,3), c=3, R'=2 target racks."""
        topo = ClusterTopology(nodes_per_rack=4, num_racks=6)
        # Core rack 0 (nodes 0-3); target racks {0, 1} (nodes 4-7).
        layout = {
            "b1": (0, 8, 9),    # spare copies in non-target rack 2
            "b2": (1, 4, 5),    # spare copies in target rack 1
            "b3": (2, 12, 13),  # spare copies in non-target rack 3
        }
        matching = solve(topo, layout, 3, target_racks=[0, 1])
        assert len(matching) == 3
        for node in matching.values():
            assert topo.rack_of(node) in (0, 1)

    def test_outside_target_racks_infeasible(self):
        topo = ClusterTopology(nodes_per_rack=2, num_racks=4)
        layout = {"b1": (4, 5, 6)}  # replicas only in racks 2 and 3
        assert solve(topo, layout, 1, target_racks=[0, 1]) == {}


class TestCapacityOverrides:
    """The core rack's parity reservation: ``c - core_reserve`` there."""

    def test_core_reservation_blocks_retention(self, topo):
        # c = 2 with one core slot reserved: rack 0 retains one data block,
        # so b2 moves off node 1 although rack 0 would still have room.
        layout = {"b1": (0,), "b2": (1, 4)}
        assert solve(topo, layout, 2) == {"b1": 0, "b2": 1}
        matching = solve(topo, layout, 2, core_rack=0, core_reserve=1)
        assert matching == {"b1": 0, "b2": 4}

    def test_override_can_make_infeasible(self, topo):
        layout = {"b1": (0,), "b2": (1,)}  # both only in rack 0
        assert len(solve(topo, layout, 2)) == 2
        assert len(solve(topo, layout, 2, core_rack=0, core_reserve=1)) == 1

    def test_negative_override_rejected(self):
        with pytest.raises(ValueError):
            retention_capacity(2, core_rack=0, core_reserve=-1)
        with pytest.raises(ValueError):
            retention_capacity(2, core_rack=0, core_reserve=2)

    def test_rack_capacity_lookup(self):
        capacity = retention_capacity(2, core_rack=1, core_reserve=1)
        assert capacity(0) == 2
        assert capacity(1) == 1
        targeted = retention_capacity(
            2, target_racks=(1, 3), core_rack=1, core_reserve=1
        )
        assert [targeted(rack) for rack in range(4)] == [0, 1, 0, 2]

    @given(
        c=st.integers(1, 4),
        target_racks=st.none() | st.sets(st.integers(0, 5), min_size=1),
        core_rack=st.none() | st.integers(0, 5),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_capacity_equals_the_reference_network(
        self, c, target_racks, core_rack, data
    ):
        reserve = data.draw(st.integers(0, c - 1))
        topology = ClusterTopology(nodes_per_rack=1, num_racks=6)
        overrides = {} if core_rack is None else {core_rack: c - reserve}
        reference = ReferenceFlowGraph(topology, c, target_racks, overrides)
        capacity = retention_capacity(c, target_racks, core_rack, reserve)
        for rack in topology.rack_ids():
            assert capacity(rack) == reference.capacity(rack)


class TestPartialMatching:
    def test_partial_covers_what_it_can(self, topo):
        layout = {"b1": (0,), "b2": (0,), "b3": (2,)}
        partial = solve(topo, layout, 4)
        assert len(partial) == 2
        assert partial["b3"] == 2

    def test_partial_empty_layout(self, topo):
        assert solve(topo, {}, 1) == {}


class TestDuplicateAdd:
    def test_duplicate_add_raises_and_leaves_the_matching_intact(self, topo):
        matching = RackMatching(topo.rack_of, retention_capacity(1))
        assert matching.add("b1", (0, 2))
        before = dict(matching._place), dict(matching._room)
        with pytest.raises(ValueError, match="already placed"):
            matching.add("b1", (4,))
        assert (dict(matching._place), dict(matching._room)) == before
        assert matching.add("b2", (1, 4))


class TestValidateMatching:
    def test_detects_wrong_block_set(self, topo):
        with pytest.raises(ValueError):
            validate_matching(topo, retention_capacity(1), {"b1": (0,)}, {})

    def test_detects_phantom_replica(self, topo):
        with pytest.raises(ValueError):
            validate_matching(
                topo, retention_capacity(1), {"b1": (0,)}, {"b1": 5}
            )

    def test_detects_node_reuse(self, topo):
        layout = {"b1": (0, 2), "b2": (0, 4)}
        with pytest.raises(ValueError):
            validate_matching(
                topo, retention_capacity(2), layout, {"b1": 0, "b2": 0}
            )

    def test_detects_rack_overflow(self, topo):
        layout = {"b1": (0, 4), "b2": (1, 6)}
        with pytest.raises(ValueError):
            validate_matching(
                topo, retention_capacity(1), layout, {"b1": 0, "b2": 1}
            )

    def test_detects_non_target_rack(self, topo):
        capacity = retention_capacity(1, target_racks=[1])
        with pytest.raises(ValueError):
            validate_matching(topo, capacity, {"b1": (0, 2)}, {"b1": 0})
