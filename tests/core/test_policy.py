"""ReplicationScheme layouts and the shared PlacementPolicy helpers."""

import random

import pytest

from repro.cluster.topology import ClusterTopology
from repro.core.policy import (
    DISTINCT_RACKS,
    PlacementError,
    ReplicationScheme,
    TWO_RACKS,
)
from repro.core.random_replication import RandomReplication


class TestReplicationScheme:
    def test_hdfs_default(self):
        assert TWO_RACKS.rack_group_sizes() == (1, 2)

    def test_distinct_racks(self):
        assert DISTINCT_RACKS.rack_group_sizes() == (1, 1, 1)

    def test_two_way(self):
        assert ReplicationScheme(2, 2).rack_group_sizes() == (1, 1)

    def test_single_replica(self):
        assert ReplicationScheme(1, 1).rack_group_sizes() == (1,)

    def test_wide_replication(self):
        assert ReplicationScheme(8, 8).rack_group_sizes() == (1,) * 8

    def test_uneven_split(self):
        # 5 replicas over 3 racks: 1 + (2, 2).
        assert ReplicationScheme(5, 3).rack_group_sizes() == (1, 2, 2)

    def test_sizes_sum_to_replicas(self):
        for replicas in range(1, 9):
            for racks in range(2 if replicas > 1 else 1, replicas + 1):
                scheme = ReplicationScheme(replicas, racks)
                sizes = scheme.rack_group_sizes()
                assert sum(sizes) == replicas
                assert len(sizes) == scheme.racks

    def test_invalid_schemes(self):
        with pytest.raises(ValueError):
            ReplicationScheme(0, 1)
        with pytest.raises(ValueError):
            ReplicationScheme(3, 4)
        with pytest.raises(ValueError):
            ReplicationScheme(3, 1)  # multi-replica needs >= 2 racks
        with pytest.raises(ValueError):
            ReplicationScheme(3, 0)


class TestSharedHelpers:
    def test_scheme_must_fit_cluster(self, small_topology):
        with pytest.raises(ValueError):
            RandomReplication(small_topology, scheme=ReplicationScheme(5, 5))

    def test_draw_layout_respects_scheme(self, medium_topology, rng):
        policy = RandomReplication(medium_topology, scheme=TWO_RACKS, rng=rng)
        for __ in range(50):
            nodes = policy._draw_layout(first_rack=3)
            assert len(nodes) == 3
            assert len(set(nodes)) == 3
            racks = [medium_topology.rack_of(n) for n in nodes]
            assert racks[0] == 3
            assert racks[1] == racks[2] != 3

    def test_draw_layout_distinct_racks(self, medium_topology, rng):
        policy = RandomReplication(
            medium_topology, scheme=DISTINCT_RACKS, rng=rng
        )
        for __ in range(50):
            nodes = policy._draw_layout(first_rack=0)
            racks = [medium_topology.rack_of(n) for n in nodes]
            assert len(set(racks)) == 3
            assert racks[0] == 0

    def test_random_rack_exclusion(self, small_topology, rng):
        policy = RandomReplication(small_topology, rng=rng)
        for __ in range(20):
            rack = policy._random_rack(exclude=[0, 1, 2])
            assert rack == 3

    def test_random_rack_accepts_any_iterable_exclude(self, small_topology):
        draws = []
        for exclude in ([0, 2], (0, 2), {0, 2}, iter([0, 2]), range(0, 3, 2)):
            policy = RandomReplication(small_topology, rng=random.Random(9))
            draws.append([policy._random_rack(exclude=exclude)] + [
                policy._random_rack(exclude={0, 2}) for __ in range(10)
            ])
            assert set(draws[-1]) <= {1, 3}
        assert all(d == draws[0] for d in draws)

    def test_random_rack_min_nodes_filters_small_racks(self):
        topology = ClusterTopology(nodes_per_rack=[1, 3, 1, 2])
        policy = RandomReplication(topology, rng=random.Random(4))
        assert {policy._random_rack(min_nodes=2) for __ in range(40)} == {1, 3}
        assert {
            policy._random_rack(exclude=[1], min_nodes=2) for __ in range(10)
        } == {3}
        with pytest.raises(PlacementError):
            policy._random_rack(min_nodes=4)

    def test_random_rack_exhausted(self, small_topology, rng):
        policy = RandomReplication(small_topology, rng=rng)
        with pytest.raises(PlacementError):
            policy._random_rack(exclude=[0, 1, 2, 3])

    def test_random_nodes_in_rack(self, medium_topology, rng):
        policy = RandomReplication(medium_topology, rng=rng)
        nodes = policy._random_nodes_in_rack(2, 3)
        assert len(set(nodes)) == 3
        assert all(medium_topology.rack_of(n) == 2 for n in nodes)

    def test_random_nodes_too_many(self, medium_topology, rng):
        policy = RandomReplication(medium_topology, rng=rng)
        with pytest.raises(PlacementError):
            policy._random_nodes_in_rack(2, 6)

    def test_repr_mentions_scheme(self, medium_topology):
        policy = RandomReplication(medium_topology)
        assert "ReplicationScheme" in repr(policy)
