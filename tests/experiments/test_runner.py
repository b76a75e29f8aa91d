"""Experiment plumbing: cluster assembly, population, table rendering."""

import pytest

from repro.cluster.topology import ClusterTopology
from repro.core.ear import EncodingAwareReplication
from repro.core.random_replication import RandomReplication
from repro.erasure.codec import CodeParams
from repro.experiments.runner import (
    build_cluster,
    format_table,
    make_policy,
    mean,
    populate_blocks,
    populate_until_sealed,
)
from repro.core.policy import ReplicationScheme


TOPO = ClusterTopology(nodes_per_rack=4, num_racks=8)
CODE = CodeParams(6, 4)
SCHEME = ReplicationScheme(3, 2)


class TestMakePolicy:
    def test_rr(self, rng):
        policy = make_policy("rr", TOPO, CODE, SCHEME, rng)
        assert isinstance(policy, RandomReplication)
        assert policy.store.k == CODE.k

    def test_ear(self, rng):
        policy = make_policy("ear", TOPO, CODE, SCHEME, rng)
        assert isinstance(policy, EncodingAwareReplication)

    def test_ear_parameters_forwarded(self, rng):
        policy = make_policy(
            "ear", TOPO, CODE, SCHEME, rng, ear_c=2, ear_target_racks=3
        )
        assert policy.c == 2
        assert policy.num_target_racks == 3

    def test_unknown_policy(self, rng):
        with pytest.raises(ValueError):
            make_policy("raid0", TOPO, CODE, SCHEME, rng)


class TestBuildCluster:
    def test_components_wired(self):
        setup = build_cluster("ear", TOPO, CODE, SCHEME, seed=1)
        assert setup.namenode.policy is setup.policy
        assert setup.client.namenode is setup.namenode
        assert setup.encoder.namenode is setup.namenode
        assert setup.network.topology is TOPO
        assert setup.client.stats is setup.write_stats

    def test_seed_determinism(self):
        a = build_cluster("rr", TOPO, CODE, SCHEME, seed=5)
        b = build_cluster("rr", TOPO, CODE, SCHEME, seed=5)
        da = [a.namenode.allocate_block()[1].node_ids for __ in range(20)]
        db = [b.namenode.allocate_block()[1].node_ids for __ in range(20)]
        assert da == db


class TestPopulation:
    def test_populate_blocks(self):
        setup = build_cluster("rr", TOPO, CODE, SCHEME, seed=2)
        populate_blocks(setup, 40)
        assert len(setup.namenode.block_store) == 40
        assert setup.sim.now == 0.0  # no simulated traffic

    def test_populate_until_sealed(self):
        setup = build_cluster("ear", TOPO, CODE, SCHEME, seed=3)
        populate_until_sealed(setup, 5)
        assert len(setup.namenode.sealed_stripes()) >= 5

    @pytest.mark.parametrize("policy", ["rr", "ear"])
    def test_populate_stops_on_the_block_that_seals_the_last_stripe(
        self, policy
    ):
        # Seals are counted as they happen; the stop point must be the one
        # a re-listing of sealed stripes before every block would pick.
        setup = build_cluster(policy, TOPO, CODE, SCHEME, seed=3)
        populate_until_sealed(setup, 2)
        store = setup.namenode.pre_encoding_store
        assert len(store.sealed_stripes()) == 2
        last = max(b.block_id for b in setup.namenode.block_store.blocks())
        assert store.in_sealed_stripe(last)
        populate_until_sealed(setup, 2)  # already there: places nothing
        assert max(
            b.block_id for b in setup.namenode.block_store.blocks()
        ) == last

    def test_populate_requires_store(self):
        policy = RandomReplication(TOPO)  # no pre-encoding store
        from repro.hdfs.namenode import NameNode

        setup = build_cluster("rr", TOPO, CODE, SCHEME, seed=1)
        setup.namenode.policy = policy
        with pytest.raises(ValueError):
            populate_until_sealed(setup, 1)


class TestHelpers:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        with pytest.raises(ValueError):
            mean([])

    def test_format_table(self):
        out = format_table(["a", "bb"], [[1, 2], [30, 40]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0]
        assert "-" in lines[1]
        assert "30" in lines[3]
