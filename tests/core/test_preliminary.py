"""Preliminary EAR: core-rack pinning without availability validation."""

import random
from collections import Counter

import pytest

from repro.cluster.block import BlockStore
from repro.core.preliminary import PreliminaryEAR
from repro.core.stripe import PreEncodingStore, StripeState


def place(policy, store, writer_node=None):
    """Create a block in ``store`` and record the policy's layout there,
    as the NameNode does."""
    block = store.create_block(64)
    decision = policy.place_block(block.block_id, writer_node=writer_node)
    store.add_replicas(block.block_id, decision.node_ids)
    return decision


def stripe_layout(store, stripe):
    """Each data block of ``stripe`` -> its replica nodes in ``store``."""
    return {bid: store.replica_nodes(bid) for bid in stripe.block_ids}


class TestCoreRackPinning:
    def test_first_replica_in_core_rack(self, large_topology, rng):
        policy = PreliminaryEAR(large_topology, k=4, rng=rng)
        for block_id in range(40):
            decision = policy.place_block(block_id)
            assert (
                large_topology.rack_of(decision.node_ids[0])
                == decision.core_rack
            )

    def test_writer_defines_core_rack(self, large_topology, rng):
        policy = PreliminaryEAR(large_topology, k=4, rng=rng)
        decision = policy.place_block(0, writer_node=45)
        assert decision.core_rack == large_topology.rack_of(45)

    def test_stripe_shares_core_rack(self, large_topology, rng):
        policy = PreliminaryEAR(large_topology, k=3, rng=rng)
        writer = 100
        decisions = [
            policy.place_block(b, writer_node=writer) for b in range(3)
        ]
        stripe_ids = {d.stripe_id for d in decisions}
        assert len(stripe_ids) == 1
        stripe = policy.store.stripe(stripe_ids.pop())
        assert stripe.state == StripeState.SEALED
        assert stripe.core_rack == large_topology.rack_of(writer)

    def test_new_stripe_after_seal(self, large_topology, rng):
        policy = PreliminaryEAR(large_topology, k=2, rng=rng)
        first = [policy.place_block(b, writer_node=0) for b in range(2)]
        second = policy.place_block(2, writer_node=0)
        assert second.stripe_id != first[0].stripe_id

    def test_multiple_core_racks_concurrently(self, large_topology, rng):
        policy = PreliminaryEAR(large_topology, k=4, rng=rng)
        policy.place_block(0, writer_node=0)    # rack 0
        policy.place_block(1, writer_node=25)   # rack 1
        opens = policy.store.open_stripes()
        assert len(opens) == 2
        assert {s.core_rack for s in opens} == {0, 1}


class TestLayouts:
    def test_remaining_replicas_follow_scheme(self, large_topology, rng):
        policy = PreliminaryEAR(large_topology, k=4, rng=rng)
        decision = policy.place_block(0)
        racks = [large_topology.rack_of(n) for n in decision.node_ids]
        assert racks[1] == racks[2] != racks[0]

    def test_layout_recorded(self, large_topology, rng):
        policy = PreliminaryEAR(large_topology, k=4, rng=rng)
        store = BlockStore(large_topology)
        decision = place(policy, store)
        assert store.replica_nodes(0) == decision.node_ids

    def test_stripe_layout(self, large_topology, rng):
        policy = PreliminaryEAR(large_topology, k=2, rng=rng)
        store = BlockStore(large_topology)
        decisions = [place(policy, store, writer_node=0) for __ in range(2)]
        stripe = policy.store.sealed_stripes()[0]
        assert stripe_layout(store, stripe) == {
            decision.block_id: decision.node_ids for decision in decisions
        }

    def test_store_k_mismatch_rejected(self, large_topology, rng):
        with pytest.raises(ValueError):
            PreliminaryEAR(
                large_topology, k=4, rng=rng, store=PreEncodingStore(5)
            )


class TestViolationRate:
    def test_violation_rate_matches_equation1(self):
        """Monte-Carlo over the real policy approaches Equation (1)."""
        from repro.analysis.violation import violation_probability
        from repro.cluster.topology import ClusterTopology
        from repro.core.matching import RackMatching, retention_capacity

        num_racks, k, trials = 10, 6, 400
        topo = ClusterTopology(nodes_per_rack=30, num_racks=num_racks)
        rng = random.Random(5)
        policy = PreliminaryEAR(topo, k=k, rng=rng)
        store = BlockStore(topo)
        writer = 0
        violations = 0
        for __ in range(trials):
            for __ in range(k):
                place(policy, store, writer_node=writer)
            stripe = policy.store.sealed_stripes()[-1]
            layout = stripe_layout(store, stripe)
            matching = RackMatching(topo.rack_of, retention_capacity(1))
            if len(matching.solve(layout)) < len(layout):
                violations += 1
        observed = violations / trials
        expected = violation_probability(num_racks, k)
        assert abs(observed - expected) < 0.08
