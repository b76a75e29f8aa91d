"""ClusterTopology: construction, lookups, and the paper's deployments."""

import pytest

from repro.cluster.topology import (
    ClusterTopology,
    DEFAULT_BLOCK_SIZE,
    GIGABIT_PER_SECOND_BYTES,
)


class TestConstruction:
    def test_homogeneous(self):
        topo = ClusterTopology(nodes_per_rack=3, num_racks=4)
        assert topo.num_racks == 4
        assert topo.num_nodes == 12

    def test_heterogeneous(self):
        topo = ClusterTopology(nodes_per_rack=[1, 2, 3])
        assert topo.num_racks == 3
        assert topo.num_nodes == 6
        assert len(topo.rack(2)) == 3

    def test_num_racks_required_for_int(self):
        with pytest.raises(ValueError):
            ClusterTopology(nodes_per_rack=3)

    def test_num_racks_conflict(self):
        with pytest.raises(ValueError):
            ClusterTopology(nodes_per_rack=[1, 2], num_racks=3)

    def test_rejects_empty_rack(self):
        with pytest.raises(ValueError):
            ClusterTopology(nodes_per_rack=[2, 0, 1])

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            ClusterTopology(nodes_per_rack=0, num_racks=3)
        with pytest.raises(ValueError):
            ClusterTopology(nodes_per_rack=3, num_racks=0)

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            ClusterTopology(nodes_per_rack=1, num_racks=2, intra_rack_bandwidth=0)
        with pytest.raises(ValueError):
            ClusterTopology(nodes_per_rack=1, num_racks=2, cross_rack_bandwidth=-1)


class TestLookups:
    def test_node_ids_are_dense(self, medium_topology):
        assert list(medium_topology.node_ids()) == list(range(40))

    def test_rack_of(self, medium_topology):
        # 5 nodes per rack: node 12 sits in rack 2.
        assert medium_topology.rack_of(12) == 2

    def test_nodes_in_rack(self, medium_topology):
        assert list(medium_topology.nodes_in_rack(1)) == [5, 6, 7, 8, 9]

    def test_node_accessor(self, medium_topology):
        node = medium_topology.node(7)
        assert node.node_id == 7
        assert node.rack_id == 1
        assert "rack1" in node.name

    def test_unknown_node_raises(self, medium_topology):
        with pytest.raises(KeyError):
            medium_topology.node(40)
        with pytest.raises(KeyError):
            medium_topology.rack_of(-1)

    def test_unknown_rack_raises(self, medium_topology):
        with pytest.raises(KeyError):
            medium_topology.rack(8)

    @pytest.mark.parametrize("sizes", [[5] * 8, [1, 4, 2]])
    def test_lookup_tables_never_wrap_around(self, sizes):
        # rack_of reads a precomputed table; a bare index would answer -1
        # with the last node's rack (the wrap-around PR 13 found in decode).
        topology = ClusterTopology(nodes_per_rack=sizes)
        for node_id in (-1, -topology.num_nodes, topology.num_nodes):
            with pytest.raises(KeyError):
                topology.rack_of(node_id)
        for rack_id in (-1, -topology.num_racks, topology.num_racks):
            with pytest.raises(KeyError):
                topology.nodes_in_rack(rack_id)

    def test_lookup_tables_agree_with_the_node_and_rack_objects(self):
        topology = ClusterTopology(nodes_per_rack=[3, 1, 4])
        assert topology.rack_sizes == (3, 1, 4)
        for node in topology.nodes:
            assert topology.rack_of(node.node_id) == node.rack_id
        for rack in topology.racks:
            assert topology.rack_sizes[rack.rack_id] == len(rack)

    def test_same_rack(self, medium_topology):
        assert medium_topology.same_rack(5, 9)
        assert not medium_topology.same_rack(4, 5)

    def test_is_cross_rack(self, medium_topology):
        assert medium_topology.is_cross_rack(0, 39)
        assert not medium_topology.is_cross_rack(0, 4)

    def test_nodes_and_racks_sequences(self, small_topology):
        assert len(small_topology.nodes) == 12
        assert len(small_topology.racks) == 4
        assert small_topology.nodes[5].node_id == 5

    def test_repr(self, small_topology):
        assert "num_racks=4" in repr(small_topology)


class TestPaperDeployments:
    def test_testbed(self):
        topo = ClusterTopology.testbed()
        assert topo.num_racks == 12
        assert topo.num_nodes == 12
        assert all(len(r) == 1 for r in topo.racks)
        assert topo.intra_rack_bandwidth == GIGABIT_PER_SECOND_BYTES

    def test_large_scale(self):
        topo = ClusterTopology.large_scale()
        assert topo.num_racks == 20
        assert topo.num_nodes == 400

    def test_default_block_size_is_64mb(self):
        assert DEFAULT_BLOCK_SIZE == 64 * 1024 * 1024

    def test_gigabit_constant(self):
        assert GIGABIT_PER_SECOND_BYTES == pytest.approx(125e6)
