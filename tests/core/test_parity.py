"""Encoding plans: EAR's zero-download guarantee, RR's costs, parity rules."""

import random

import pytest

from repro.cluster.block import BlockStore
from repro.cluster.failure import stripe_rack_fault_tolerance
from repro.cluster.topology import ClusterTopology
from repro.core.ear import EncodingAwareReplication
from repro.core.matching import RackMatching, retention_capacity
from repro.core.parity import (
    EARPlanner,
    RRPlanner,
    count_cross_rack_downloads,
    download_plan,
    plan_ear_encoding,
    plan_rr_encoding,
)
from repro.core.policy import PlacementError
from repro.core.random_replication import RandomReplication
from repro.core.stripe import PreEncodingStore
from repro.erasure.codec import CodeParams


def build_ear_state(topology, code, seed, c=1, num_target_racks=None, blocks=None):
    rng = random.Random(seed)
    store = BlockStore(topology)
    policy = EncodingAwareReplication(
        topology, code, rng=rng, c=c, num_target_racks=num_target_racks
    )
    count = blocks if blocks is not None else code.k * 12
    while not policy.store.sealed_stripes() or len(store) < count:
        block = store.create_block(64)
        decision = policy.place_block(block.block_id)
        store.add_replicas(block.block_id, decision.node_ids)
        if len(store) >= count and policy.store.sealed_stripes():
            break
    return policy, store, rng


def build_rr_state(topology, code, seed, blocks=None):
    rng = random.Random(seed)
    store = BlockStore(topology)
    policy = RandomReplication(
        topology, rng=rng, store=PreEncodingStore(code.k)
    )
    count = blocks if blocks is not None else code.k * 5
    for __ in range(count):
        block = store.create_block(64)
        decision = policy.place_block(block.block_id)
        store.add_replicas(block.block_id, decision.node_ids)
    return policy, store, rng


class TestEARPlans:
    def test_zero_cross_rack_downloads(self, large_topology, facebook_code):
        policy, store, rng = build_ear_state(large_topology, facebook_code, 1)
        for stripe in policy.store.sealed_stripes():
            plan = plan_ear_encoding(
                large_topology, store, stripe, facebook_code, rng=rng
            )
            assert plan.cross_rack_downloads == 0

    def test_encoder_in_core_rack(self, large_topology, facebook_code):
        policy, store, rng = build_ear_state(large_topology, facebook_code, 2)
        stripe = policy.store.sealed_stripes()[0]
        plan = plan_ear_encoding(
            large_topology, store, stripe, facebook_code, rng=rng
        )
        assert large_topology.rack_of(plan.encoder_node) == stripe.core_rack

    def test_post_encoding_rack_fault_tolerance(
        self, large_topology, facebook_code
    ):
        """The availability guarantee: n-k rack failures at c=1, no moves."""
        policy, store, rng = build_ear_state(large_topology, facebook_code, 3)
        for stripe in policy.store.sealed_stripes():
            plan = plan_ear_encoding(
                large_topology, store, stripe, facebook_code, rng=rng
            )
            nodes = plan.all_nodes()
            assert len(set(nodes)) == facebook_code.n  # distinct nodes
            tolerance = stripe_rack_fault_tolerance(
                large_topology, nodes, facebook_code.k
            )
            assert tolerance >= facebook_code.num_parity

    def test_pinned_encoder_respected(self, large_topology, facebook_code):
        policy, store, rng = build_ear_state(large_topology, facebook_code, 4)
        stripe = policy.store.sealed_stripes()[0]
        encoder = large_topology.nodes_in_rack(stripe.core_rack)[0]
        plan = plan_ear_encoding(
            large_topology, store, stripe, facebook_code, rng=rng,
            encoder_node=encoder,
        )
        assert plan.encoder_node == encoder

    def test_encoder_outside_core_rack_rejected(
        self, large_topology, facebook_code
    ):
        policy, store, rng = build_ear_state(large_topology, facebook_code, 5)
        stripe = policy.store.sealed_stripes()[0]
        outsider = next(
            n for n in large_topology.node_ids()
            if large_topology.rack_of(n) != stripe.core_rack
        )
        with pytest.raises(PlacementError):
            plan_ear_encoding(
                large_topology, store, stripe, facebook_code, rng=rng,
                encoder_node=outsider,
            )

    def test_requires_core_rack(self, large_topology, facebook_code):
        policy, store, rng = build_rr_state(large_topology, facebook_code, 6)
        stripe = policy.store.sealed_stripes()[0]
        with pytest.raises(PlacementError):
            plan_ear_encoding(large_topology, store, stripe, facebook_code)

    @pytest.mark.parametrize("c", [0, -1])
    def test_c_must_be_positive(self, large_topology, facebook_code, c):
        policy, store, rng = build_ear_state(large_topology, facebook_code, 6)
        stripe = policy.store.sealed_stripes()[0]
        with pytest.raises(ValueError, match="c must be positive"):
            plan_ear_encoding(large_topology, store, stripe, facebook_code, c=c)
        planner = EARPlanner(large_topology, store, facebook_code, c=c)
        with pytest.raises(ValueError, match="c must be positive"):
            planner.plan(stripe)

    def test_parity_reservation_cuts_uploads(self, facebook_code):
        """With c=4, up to min(c-1, n-k)=3 parity blocks stay in the core
        rack, so at most one upload crosses racks (Figure 13(e)'s effect)."""
        topo = ClusterTopology(nodes_per_rack=20, num_racks=20)
        policy, store, rng = build_ear_state(
            topo, facebook_code, 7, c=4, num_target_racks=4
        )
        for stripe in policy.store.sealed_stripes():
            plan = plan_ear_encoding(
                topo, store, stripe, facebook_code, c=4, rng=rng
            )
            assert plan.cross_rack_uploads <= facebook_code.num_parity - 2

    def test_reservation_disabled(self, facebook_code):
        topo = ClusterTopology(nodes_per_rack=20, num_racks=20)
        policy, store, rng = build_ear_state(topo, facebook_code, 8, c=4)
        stripe = policy.store.sealed_stripes()[0]
        plan = plan_ear_encoding(
            topo, store, stripe, facebook_code, c=4, rng=rng,
            reserve_core_for_parity=False,
        )
        # Without reservation parity lands in other racks (almost surely).
        assert plan.cross_rack_uploads >= facebook_code.num_parity - 1

    def test_c1_parity_in_fresh_racks(self, large_topology, facebook_code):
        """At c=1 parity goes to n-k racks not holding data (paper rule)."""
        policy, store, rng = build_ear_state(large_topology, facebook_code, 9)
        stripe = policy.store.sealed_stripes()[0]
        plan = plan_ear_encoding(
            large_topology, store, stripe, facebook_code, rng=rng
        )
        data_racks = {
            large_topology.rack_of(n) for n in plan.retained.values()
        }
        parity_racks = {large_topology.rack_of(n) for n in plan.parity_nodes}
        assert len(parity_racks) == facebook_code.num_parity
        assert not (data_racks & parity_racks)


class TestRRPlans:
    def test_cross_rack_downloads_near_expectation(
        self, large_topology, facebook_code
    ):
        """Section II-B's analysis: ~ k (1 - 2/R) cross-rack downloads."""
        policy, store, rng = build_rr_state(
            large_topology, facebook_code, 10, blocks=facebook_code.k * 30
        )
        stripes = policy.store.sealed_stripes()
        total = 0
        for stripe in stripes:
            plan = plan_rr_encoding(
                large_topology, store, stripe, facebook_code, rng=rng
            )
            total += plan.cross_rack_downloads
        mean = total / len(stripes)
        expected = facebook_code.k * (1 - 2 / large_topology.num_racks)
        assert abs(mean - expected) < 1.2

    def test_retention_keeps_one_copy_per_block(
        self, large_topology, facebook_code
    ):
        policy, store, rng = build_rr_state(large_topology, facebook_code, 11)
        stripe = policy.store.sealed_stripes()[0]
        plan = plan_rr_encoding(
            large_topology, store, stripe, facebook_code, rng=rng
        )
        assert set(plan.retained) == set(stripe.block_ids)
        for block_id, node in plan.retained.items():
            assert node in store.replica_nodes(block_id)

    def test_parity_count(self, large_topology, facebook_code):
        policy, store, rng = build_rr_state(large_topology, facebook_code, 12)
        stripe = policy.store.sealed_stripes()[0]
        plan = plan_rr_encoding(
            large_topology, store, stripe, facebook_code, rng=rng
        )
        assert len(plan.parity_nodes) == facebook_code.num_parity
        assert len(set(plan.all_nodes())) <= facebook_code.n

    def test_fixed_encoder(self, large_topology, facebook_code):
        policy, store, rng = build_rr_state(large_topology, facebook_code, 13)
        stripe = policy.store.sealed_stripes()[0]
        plan = plan_rr_encoding(
            large_topology, store, stripe, facebook_code, rng=rng,
            encoder_node=123,
        )
        assert plan.encoder_node == 123

    def test_single_node_racks_fallback(self):
        """On the testbed topology RR retention may need node sharing."""
        topo = ClusterTopology.testbed()
        code = CodeParams(10, 8)
        rng = random.Random(3)
        store = BlockStore(topo)
        from repro.core.policy import ReplicationScheme

        policy = RandomReplication(
            topo,
            scheme=ReplicationScheme(2, 2),
            rng=rng,
            store=PreEncodingStore(code.k),
        )
        for __ in range(code.k * 24):
            block = store.create_block(64)
            decision = policy.place_block(block.block_id)
            store.add_replicas(block.block_id, decision.node_ids)
        for stripe in policy.store.sealed_stripes():
            plan = plan_rr_encoding(topo, store, stripe, code, rng=rng)
            assert set(plan.retained) == set(stripe.block_ids)


class TestDownloadPlan:
    def test_prefers_local_then_rack(self, medium_topology, facebook_code):
        store = BlockStore(medium_topology)
        code = CodeParams(6, 4)
        stripe_store = PreEncodingStore(4)
        stripe = stripe_store.new_stripe(core_rack=0)
        # Block 0 on the encoder, block 1 in its rack, blocks 2-3 elsewhere.
        sources = {0: [0, 10], 1: [1, 15], 2: [20, 25], 3: [30, 35]}
        for block_id, nodes in sources.items():
            store.create_block(64)
            store.add_replicas(block_id, nodes)
            stripe_store.add_block(stripe.stripe_id, block_id)
        plan = download_plan(medium_topology, store, stripe, encoder_node=0)
        assert plan[0] == 0
        assert plan[1] == 1
        assert plan[2] in (20, 25)
        assert count_cross_rack_downloads(medium_topology, plan, 0) == 2


class TestPlanners:
    def test_ear_planner_wiring(self, large_topology, facebook_code):
        policy, store, rng = build_ear_state(large_topology, facebook_code, 14)
        planner = EARPlanner(large_topology, store, facebook_code, rng=rng)
        stripe = policy.store.sealed_stripes()[0]
        eligible = planner.eligible_encoder_nodes(stripe)
        assert eligible == list(large_topology.nodes_in_rack(stripe.core_rack))
        plan = planner.plan(stripe)
        assert plan.cross_rack_downloads == 0

    def test_rr_planner_wiring(self, large_topology, facebook_code):
        policy, store, rng = build_rr_state(large_topology, facebook_code, 15)
        planner = RRPlanner(large_topology, store, facebook_code, rng=rng)
        stripe = policy.store.sealed_stripes()[0]
        assert len(planner.eligible_encoder_nodes(stripe)) == 400
        plan = planner.plan(stripe)
        assert len(plan.parity_nodes) == 4

    def test_ear_planner_rejects_rr_stripe(self, large_topology, facebook_code):
        policy, store, rng = build_rr_state(large_topology, facebook_code, 16)
        planner = EARPlanner(large_topology, store, facebook_code, rng=rng)
        stripe = policy.store.sealed_stripes()[0]
        with pytest.raises(PlacementError):
            planner.eligible_encoder_nodes(stripe)


class TestUnknownNodeIds:
    """Node ids outside ``[0, num_nodes)`` raise ``KeyError`` on every
    lookup path: a bare tuple index would wrap -1 to the last node."""

    @pytest.fixture(params=[-1, "num_nodes"])
    def bad_node(self, request, large_topology):
        if request.param == "num_nodes":
            return large_topology.num_nodes
        return request.param

    def test_rack_matching(self, large_topology, bad_node):
        matching = RackMatching(large_topology.rack_of, retention_capacity(1))
        with pytest.raises(KeyError):
            matching.add("a", [0, bad_node])
        with pytest.raises(KeyError):
            RackMatching(large_topology.rack_of, retention_capacity(1)).solve(
                {"a": [bad_node]}
            )

    def test_ear_planner(self, large_topology, facebook_code, bad_node):
        policy, store, rng = build_ear_state(large_topology, facebook_code, 21)
        planner = EARPlanner(large_topology, store, facebook_code, rng=rng)
        stripe = policy.store.sealed_stripes()[0]
        with pytest.raises(KeyError):
            planner.plan(stripe, encoder_node=bad_node)
        with pytest.raises(KeyError):
            planner.plan(
                stripe, encoder_node=bad_node, allow_foreign_encoder=True
            )

    def test_rr_planner(self, large_topology, facebook_code, bad_node):
        policy, store, rng = build_rr_state(large_topology, facebook_code, 22)
        planner = RRPlanner(large_topology, store, facebook_code, rng=rng)
        stripe = policy.store.sealed_stripes()[0]
        with pytest.raises(KeyError):
            planner.plan(stripe, encoder_node=bad_node)

    def test_download_plan(self, large_topology, facebook_code, bad_node):
        policy, store, __ = build_rr_state(large_topology, facebook_code, 23)
        stripe = policy.store.sealed_stripes()[0]
        with pytest.raises(KeyError):
            download_plan(large_topology, store, stripe, bad_node)
