"""EAR: flow-graph-validated placement, target racks, Theorem 1."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import ClusterTopology
from repro.core.ear import EncodingAwareReplication
from repro.core.policy import ReplicationScheme
from repro.core.stripe import PreEncodingStore
from repro.erasure.codec import CodeParams
from repro.hdfs.namenode import NameNode
from tests.core.reference_flow import ear_retention_plan, stripe_layouts


def place_stripes(policy, num_blocks, writer=None):
    decisions = []
    for block_id in range(num_blocks):
        decisions.append(policy.place_block(block_id, writer_node=writer))
    return decisions


class TestPlacementInvariants:
    def test_first_replica_in_core_rack(self, large_topology, facebook_code, rng):
        policy = EncodingAwareReplication(large_topology, facebook_code, rng=rng)
        for decision in place_stripes(policy, 100):
            assert (
                large_topology.rack_of(decision.node_ids[0])
                == decision.core_rack
            )

    def test_every_sealed_stripe_has_matching(
        self, large_topology, facebook_code, rng
    ):
        policy = EncodingAwareReplication(large_topology, facebook_code, rng=rng)
        layouts = stripe_layouts(place_stripes(policy, 300))
        for stripe in policy.store.sealed_stripes():
            ear_retention_plan(policy, stripe, layouts[stripe.stripe_id])

    def test_core_rack_holds_every_block(self, large_topology, facebook_code, rng):
        """The EAR guarantee: one replica of each stripe block in the core
        rack, so encoding needs no cross-rack downloads."""
        policy = EncodingAwareReplication(large_topology, facebook_code, rng=rng)
        layouts = stripe_layouts(place_stripes(policy, 300))
        for stripe in policy.store.sealed_stripes():
            layout = layouts[stripe.stripe_id]
            for block_id, nodes in layout.items():
                racks = {large_topology.rack_of(n) for n in nodes}
                assert stripe.core_rack in racks

    def test_replicas_on_distinct_nodes(self, large_topology, facebook_code, rng):
        policy = EncodingAwareReplication(large_topology, facebook_code, rng=rng)
        for decision in place_stripes(policy, 100):
            assert len(set(decision.node_ids)) == len(decision.node_ids)

    def test_stripes_seal_at_k(self, large_topology, facebook_code, rng):
        policy = EncodingAwareReplication(large_topology, facebook_code, rng=rng)
        place_stripes(policy, 200, writer=0)
        sealed = policy.store.sealed_stripes()
        assert len(sealed) == 20  # 200 blocks / k=10, single core rack
        assert all(len(s.block_ids) == 10 for s in sealed)

    def test_determinism_under_seed(self, large_topology, facebook_code):
        a = EncodingAwareReplication(
            large_topology, facebook_code, rng=random.Random(2)
        )
        b = EncodingAwareReplication(
            large_topology, facebook_code, rng=random.Random(2)
        )
        for block_id in range(60):
            assert (
                a.place_block(block_id).node_ids
                == b.place_block(block_id).node_ids
            )


class TestValidationBehaviour:
    def test_attempts_recorded(self, large_topology, facebook_code, rng):
        policy = EncodingAwareReplication(large_topology, facebook_code, rng=rng)
        place_stripes(policy, 200, writer=0)
        attempts = policy.attempts_by_index()
        assert set(attempts) == set(range(1, 11))
        # The first block of a stripe always qualifies immediately.
        assert all(a == 1 for a in attempts[1])

    def test_mean_attempts_near_theorem1(self, large_topology, facebook_code):
        """Theorem 1: at R=20, c=1 the 10th block needs <= 1.9 redraws in
        expectation (plus a small slack for finite racks)."""
        policy = EncodingAwareReplication(
            large_topology, facebook_code, rng=random.Random(1)
        )
        place_stripes(policy, 3000, writer=0)
        mean_10 = policy.mean_attempts(10)
        assert mean_10 < 1.9 * 1.25
        assert mean_10 > 1.0

    def test_mean_attempts_requires_samples(self, large_topology, facebook_code, rng):
        policy = EncodingAwareReplication(large_topology, facebook_code, rng=rng)
        with pytest.raises(KeyError):
            policy.mean_attempts(1)

    def test_max_attempts_cap(self, facebook_code):
        # One rack cannot host a (14,10) stripe at c=1 -> constructor error.
        tiny = ClusterTopology(nodes_per_rack=50, num_racks=4)
        with pytest.raises(ValueError):
            EncodingAwareReplication(tiny, facebook_code, c=1)

    def test_max_attempts_must_be_positive(self, large_topology, facebook_code):
        with pytest.raises(ValueError):
            EncodingAwareReplication(
                large_topology, facebook_code, max_attempts=0
            )

    def test_store_k_mismatch(self, large_topology, facebook_code, rng):
        with pytest.raises(ValueError):
            EncodingAwareReplication(
                large_topology, facebook_code, rng=rng,
                store=PreEncodingStore(5),
            )


class TestParameterC:
    def test_c2_allows_pair_concentration(self, facebook_code):
        topo = ClusterTopology(nodes_per_rack=10, num_racks=7)
        policy = EncodingAwareReplication(
            topo, facebook_code, rng=random.Random(4), c=2
        )
        layouts = stripe_layouts(place_stripes(policy, 200, writer=0))
        for stripe in policy.store.sealed_stripes():
            plan = ear_retention_plan(policy, stripe, layouts[stripe.stripe_id])
            usage = Counter(topo.rack_of(node) for node in plan.values())
            assert max(usage.values()) <= 2

    def test_c_bound_on_racks(self, facebook_code):
        # ceil(14 / 2) = 7 racks needed at c = 2.
        topo = ClusterTopology(nodes_per_rack=10, num_racks=6)
        with pytest.raises(ValueError):
            EncodingAwareReplication(topo, facebook_code, c=2)

    def test_invalid_c(self, large_topology, facebook_code):
        with pytest.raises(ValueError):
            EncodingAwareReplication(large_topology, facebook_code, c=0)


class TestTargetRacks:
    def test_target_racks_include_core(self, large_topology, facebook_code):
        policy = EncodingAwareReplication(
            large_topology,
            facebook_code,
            rng=random.Random(9),
            c=4,
            num_target_racks=4,
        )
        place_stripes(policy, 60, writer=0)
        for stripe in policy.store:
            assert stripe.target_racks is not None
            assert len(stripe.target_racks) == 4
            assert stripe.core_rack in stripe.target_racks

    def test_retention_confined_to_targets(self, large_topology, facebook_code):
        policy = EncodingAwareReplication(
            large_topology,
            facebook_code,
            rng=random.Random(9),
            c=4,
            num_target_racks=4,
        )
        layouts = stripe_layouts(place_stripes(policy, 40, writer=0))
        for stripe in policy.store.sealed_stripes():
            plan = ear_retention_plan(policy, stripe, layouts[stripe.stripe_id])
            for node in plan.values():
                assert large_topology.rack_of(node) in stripe.target_racks

    def test_biased_drawing_also_valid(self, large_topology, facebook_code):
        policy = EncodingAwareReplication(
            large_topology,
            facebook_code,
            rng=random.Random(9),
            c=4,
            num_target_racks=4,
            bias_target_racks=True,
        )
        decisions = place_stripes(policy, 40, writer=0)
        # Biased draws place every replica inside the stripe's target racks.
        for decision in decisions:
            stripe = policy.store.stripe(decision.stripe_id)
            for node in decision.node_ids:
                assert large_topology.rack_of(node) in stripe.target_racks

    def test_too_few_target_racks(self, large_topology, facebook_code):
        with pytest.raises(ValueError):
            EncodingAwareReplication(
                large_topology, facebook_code, c=1, num_target_racks=10
            )

    def test_too_many_target_racks(self, large_topology, facebook_code):
        with pytest.raises(ValueError):
            EncodingAwareReplication(
                large_topology, facebook_code, c=1, num_target_racks=25
            )


@given(
    seed=st.integers(0, 2**10),
    k=st.integers(3, 6),
    parity=st.integers(1, 3),
    c=st.integers(1, 2),
)
@settings(max_examples=15, deadline=None)
def test_property_ear_invariants(seed, k, parity, c):
    """Any EAR configuration yields stripes with valid retention plans,
    the core rack covering every block, and per-rack usage <= c."""
    n = k + parity
    num_racks = max(10, -(-n // c) + 2)
    topo = ClusterTopology(nodes_per_rack=8, num_racks=num_racks)
    code = CodeParams(n, k)
    policy = EncodingAwareReplication(
        topo, code, rng=random.Random(seed), c=c
    )
    layouts = stripe_layouts(
        [policy.place_block(block_id) for block_id in range(6 * k)]
    )
    for stripe in policy.store.sealed_stripes():
        layout = layouts[stripe.stripe_id]
        ear_retention_plan(policy, stripe, layout)
        for nodes in layout.values():
            assert stripe.core_rack in {topo.rack_of(x) for x in nodes}


@pytest.mark.parametrize(
    "c,num_target_racks",
    [(1, None), (2, None), (4, 4)],
    ids=["c1", "c2-reserved", "targets"],
)
def test_namenode_layouts_keep_a_full_retention_matching(c, num_target_racks):
    """EAR's guarantee read back from the NameNode's block store: every
    sealed stripe's replica layout solves, under the capacity EAR placed
    it with, to a matching that keeps every block and passes the checker."""
    topo = ClusterTopology.large_scale()
    code = CodeParams(14, 10)
    policy = EncodingAwareReplication(
        topo, code, rng=random.Random(c), c=c,
        num_target_racks=num_target_racks,
    )
    assert policy.core_reserve == min(c - 1, code.num_parity)
    namenode = NameNode(topo, policy)
    for block_id in range(20 * code.k):
        namenode.allocate_block(writer_node=topo.nodes_in_rack(block_id % 5)[0])
    sealed = namenode.sealed_stripes()
    assert len(sealed) == 20
    for stripe in sealed:
        layout = {
            block_id: namenode.block_locations(block_id)
            for block_id in stripe.block_ids
        }
        plan = ear_retention_plan(policy, stripe, layout)
        if num_target_racks is not None:
            assert {topo.rack_of(node) for node in plan.values()} <= set(
                stripe.target_racks
            )
