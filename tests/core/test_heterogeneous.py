"""Placement on heterogeneous clusters (uneven rack sizes).

Production racks rarely have identical node counts; both policies must
keep their guarantees when rack sizes differ, as long as the scheme's
per-rack group sizes fit the smallest rack chosen.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.block import BlockStore
from repro.cluster.failure import stripe_rack_fault_tolerance
from repro.cluster.topology import ClusterTopology
from repro.core.ear import EncodingAwareReplication
from repro.core.policy import PlacementError, ReplicationScheme
from repro.core.random_replication import RandomReplication
from repro.core.relocation import BlockMover
from repro.core.stripe import PreEncodingStore
from repro.erasure.codec import CodeParams
from repro.journal.state import Stores
from tests.core.reference_flow import ear_retention_plan, stripe_layouts

LOPSIDED = ClusterTopology(nodes_per_rack=[2, 8, 3, 6, 2, 9, 4, 5])
CODE = CodeParams(6, 4)


class TestRandomReplicationHeterogeneous:
    def test_layouts_remain_valid(self):
        policy = RandomReplication(LOPSIDED, rng=random.Random(1))
        for block_id in range(200):
            decision = policy.place_block(block_id)
            assert len(set(decision.node_ids)) == 3
            racks = {LOPSIDED.rack_of(n) for n in decision.node_ids}
            assert len(racks) == 2

    def test_small_racks_can_be_skipped_by_redraw(self):
        # The 2-node racks can still host the 2-copy group exactly.
        policy = RandomReplication(LOPSIDED, rng=random.Random(2))
        seen_small_rack_pairs = 0
        for block_id in range(300):
            decision = policy.place_block(block_id)
            racks = [LOPSIDED.rack_of(n) for n in decision.node_ids]
            if len(LOPSIDED.rack(racks[1])) == 2:
                seen_small_rack_pairs += 1
        assert seen_small_rack_pairs > 0  # small racks participate


class TestEARHeterogeneous:
    def test_guarantees_hold(self):
        policy = EncodingAwareReplication(
            LOPSIDED, CODE, rng=random.Random(3)
        )
        layouts = stripe_layouts(
            [policy.place_block(block_id) for block_id in range(24 * CODE.k)]
        )
        sealed = policy.store.sealed_stripes()
        assert sealed
        for stripe in sealed:
            layout = layouts[stripe.stripe_id]
            ear_retention_plan(policy, stripe, layout)
            for nodes in layout.values():
                racks = {LOPSIDED.rack_of(n) for n in nodes}
                assert stripe.core_rack in racks

    def test_tiny_rack_cannot_host_wide_group(self):
        # A 1-node rack cannot host the two-copy group; placement must
        # redraw around it rather than fail.
        topo = ClusterTopology(nodes_per_rack=[1, 5, 5, 5, 5, 5, 5, 1])
        policy = EncodingAwareReplication(topo, CODE, rng=random.Random(4))
        for block_id in range(12 * CODE.k):
            policy.place_block(block_id)
        assert policy.store.sealed_stripes()


class TestBlockMoverHeterogeneous:
    def test_destination_rack_has_a_free_node(self):
        # Rack 1 is a single node that already holds a block: it sits below
        # the cap of 2 but cannot take another, so only racks 2 and 3 may
        # receive the block moved off rack 0.
        topo = ClusterTopology(nodes_per_rack=[4, 1, 4, 4])
        code = CodeParams(6, 2)
        for seed in range(20):
            store = BlockStore(topo)
            stripes = PreEncodingStore(code.k)
            stripe = stripes.new_stripe()
            for node in [0, 1]:
                block = store.create_block(64)
                store.add_replica(block.block_id, node)
                stripes.add_block(stripe.stripe_id, block.block_id)
            Stores(blocks=store, stripes=stripes).encode_stripe(
                stripe.stripe_id, [2, 4, 5, 9], 64, ()
            )
            mover = BlockMover(
                topo, code, required_rack_failures=2, rng=random.Random(seed)
            )
            (move,) = mover.repair(store, stripe).moves
            assert topo.rack_of(move.dst_node) in (2, 3)
            nodes = [store.replica_nodes(b)[0] for b in stripe.all_block_ids()]
            assert stripe_rack_fault_tolerance(topo, nodes, code.k) >= 2


@given(seed=st.integers(0, 2**12))
@settings(max_examples=10, deadline=None)
def test_property_heterogeneous_ear_invariants(seed):
    rng = random.Random(seed)
    sizes = [rng.randrange(2, 9) for __ in range(rng.randrange(8, 14))]
    topo = ClusterTopology(nodes_per_rack=sizes)
    code = CodeParams(6, 4)
    policy = EncodingAwareReplication(topo, code, rng=rng)
    decisions = []
    try:
        for block_id in range(10 * code.k):
            decisions.append(policy.place_block(block_id))
    except PlacementError:
        # Acceptable only when some rack genuinely cannot host a group.
        pytest.skip("degenerate random topology")
    layouts = stripe_layouts(decisions)
    for stripe in policy.store.sealed_stripes():
        ear_retention_plan(policy, stripe, layouts[stripe.stripe_id])
