"""PlacementMonitor / BlockMover: detection and repair of violations."""

import random

import pytest

from repro.cluster.block import BlockStore
from repro.cluster.failure import stripe_rack_fault_tolerance
from repro.cluster.topology import ClusterTopology
from repro.core.parity import plan_rr_encoding
from repro.core.policy import PlacementError
from repro.core.random_replication import RandomReplication
from repro.core.relocation import BlockMover, PlacementMonitor
from repro.core.stripe import PreEncodingStore
from repro.erasure.codec import CodeParams
from repro.journal.state import Stores


@pytest.fixture
def code():
    return CodeParams(6, 4)


def encoded_stripe(topology, store, node_ids, code):
    """Hand-build an encoded stripe whose blocks sit on ``node_ids``."""
    stripe_store = PreEncodingStore(code.k)
    stripe = stripe_store.new_stripe()
    for index in range(code.k):
        block = store.create_block(64)
        store.add_replica(block.block_id, node_ids[index])
        stripe_store.add_block(stripe.stripe_id, block.block_id)
    Stores(blocks=store, stripes=stripe_store).encode_stripe(
        stripe.stripe_id, node_ids[code.k:code.n], 64, ()
    )
    return stripe


class TestPlacementMonitor:
    def test_spread_stripe_passes(self, medium_topology, code):
        store = BlockStore(medium_topology)
        nodes = [0, 5, 10, 15, 20, 25]  # one rack each
        stripe = encoded_stripe(medium_topology, store, nodes, code)
        monitor = PlacementMonitor(medium_topology, code)
        assert not monitor.is_violating(store, stripe)

    def test_concentrated_stripe_fails(self, medium_topology, code):
        store = BlockStore(medium_topology)
        nodes = [0, 1, 2, 5, 10, 15]  # three blocks in rack 0
        stripe = encoded_stripe(medium_topology, store, nodes, code)
        monitor = PlacementMonitor(medium_topology, code)
        assert monitor.is_violating(store, stripe)

    def test_requirement_dial(self, medium_topology, code):
        store = BlockStore(medium_topology)
        nodes = [0, 1, 5, 6, 10, 15]  # two racks with two blocks each
        stripe = encoded_stripe(medium_topology, store, nodes, code)
        lax = PlacementMonitor(medium_topology, code, required_rack_failures=1)
        strict = PlacementMonitor(medium_topology, code, required_rack_failures=2)
        assert not lax.is_violating(store, stripe)
        assert strict.is_violating(store, stripe)

    def test_requirement_out_of_range(self, medium_topology, code):
        with pytest.raises(ValueError):
            PlacementMonitor(medium_topology, code, required_rack_failures=3)

    def test_rejects_unencoded_stripe(self, medium_topology, code):
        store = BlockStore(medium_topology)
        stripe_store = PreEncodingStore(code.k)
        stripe = stripe_store.new_stripe()
        block = store.create_block(64)
        store.add_replicas(block.block_id, [0, 5])
        stripe_store.add_block(stripe.stripe_id, block.block_id, seal_when_full=False)
        monitor = PlacementMonitor(medium_topology, code)
        with pytest.raises(PlacementError):
            monitor.is_violating(store, stripe)

    def test_scan_filters(self, medium_topology, code):
        store = BlockStore(medium_topology)
        good = encoded_stripe(medium_topology, store, [0, 5, 10, 15, 20, 25], code)
        bad = encoded_stripe(medium_topology, store, [1, 2, 3, 6, 11, 16], code)
        monitor = PlacementMonitor(medium_topology, code)
        assert monitor.scan(store, [good, bad]) == [bad]


class TestBlockMover:
    def test_rack_cap(self, medium_topology, code):
        assert BlockMover(medium_topology, code).rack_cap() == 1
        assert BlockMover(medium_topology, code, required_rack_failures=1).rack_cap() == 2
        assert BlockMover(medium_topology, code, required_rack_failures=0).rack_cap() == code.n

    def test_repair_restores_tolerance(self, medium_topology, code):
        store = BlockStore(medium_topology)
        nodes = [0, 1, 2, 5, 10, 15]
        stripe = encoded_stripe(medium_topology, store, nodes, code)
        mover = BlockMover(
            medium_topology, code, rng=random.Random(0)
        )
        plan = mover.repair(store, stripe)
        assert not plan.is_empty
        new_nodes = [
            store.replica_nodes(b)[0] for b in stripe.all_block_ids()
        ]
        assert (
            stripe_rack_fault_tolerance(medium_topology, new_nodes, code.k)
            >= code.num_parity
        )

    def test_repair_of_compliant_stripe_is_empty(self, medium_topology, code):
        store = BlockStore(medium_topology)
        stripe = encoded_stripe(
            medium_topology, store, [0, 5, 10, 15, 20, 25], code
        )
        plan = BlockMover(medium_topology, code, rng=random.Random(0)).plan(
            store, stripe
        )
        assert plan.is_empty
        assert plan.cross_rack_moves == 0

    def test_moves_are_minimal_for_one_extra(self, medium_topology, code):
        # One rack holds two blocks: exactly one move needed.
        store = BlockStore(medium_topology)
        stripe = encoded_stripe(
            medium_topology, store, [0, 1, 5, 10, 15, 20], code
        )
        plan = BlockMover(medium_topology, code, rng=random.Random(0)).plan(
            store, stripe
        )
        assert len(plan.moves) == 1
        assert plan.cross_rack_moves == 1

    def test_cross_rack_move_accounting(self, medium_topology, code):
        store = BlockStore(medium_topology)
        stripe = encoded_stripe(
            medium_topology, store, [0, 1, 2, 5, 10, 15], code
        )
        mover = BlockMover(medium_topology, code, rng=random.Random(0))
        plan = mover.plan(store, stripe)
        assert plan.cross_rack_moves == sum(
            1 for m in plan.moves if m.is_cross_rack(medium_topology)
        )

    def test_unsatisfiable_requirement_raises(self, code):
        # Only 4 racks but the requirement needs 6 distinct racks.
        topo = ClusterTopology(nodes_per_rack=4, num_racks=4)
        store = BlockStore(topo)
        stripe = encoded_stripe(topo, store, [0, 1, 4, 5, 8, 12], code)
        mover = BlockMover(topo, code, rng=random.Random(0))
        with pytest.raises(PlacementError):
            mover.plan(store, stripe)

    def test_relaxed_requirement_spreads_less(self, medium_topology, code):
        store = BlockStore(medium_topology)
        stripe = encoded_stripe(
            medium_topology, store, [0, 1, 2, 5, 6, 10], code
        )
        mover = BlockMover(
            medium_topology, code, required_rack_failures=1,
            rng=random.Random(0),
        )
        plan = mover.repair(store, stripe)
        new_nodes = [store.replica_nodes(b)[0] for b in stripe.all_block_ids()]
        assert (
            stripe_rack_fault_tolerance(medium_topology, new_nodes, code.k)
            >= 1
        )
        # Repairing to tolerance 1 (cap 2) needs fewer moves than cap 1.
        assert len(plan.moves) <= 2


class TestRRStripesNeedRelocationSometimes:
    def test_paper_motivation(self, large_topology, facebook_code):
        """Section II-B: RR-placed stripes can violate rack-level fault
        tolerance after encoding (rare in production, the paper notes, but
        possible — EAR-placed stripes never violate it by construction)."""
        rng = random.Random(1)
        store = BlockStore(large_topology)
        policy = RandomReplication(
            large_topology, rng=rng, store=PreEncodingStore(facebook_code.k)
        )
        for __ in range(facebook_code.k * 40):
            block = store.create_block(64)
            decision = policy.place_block(block.block_id)
            store.add_replicas(block.block_id, decision.node_ids)
        monitor = PlacementMonitor(large_topology, facebook_code)
        violations = 0
        stripes = policy.store.sealed_stripes()
        for stripe in stripes:
            plan = plan_rr_encoding(
                large_topology, store, stripe, facebook_code, rng=rng
            )
            # Apply the retention + parity so the monitor can inspect it.
            Stores(blocks=store, stripes=policy.store).encode_stripe(
                stripe.stripe_id, plan.parity_nodes, 64,
                plan.retained.items(),
            )
            if monitor.is_violating(store, stripe):
                violations += 1
        # Rare but present at R=20 (and repairing them costs cross-rack
        # traffic plus a vulnerability window, which is EAR's motivation).
        assert violations > 0
        assert violations / len(stripes) < 0.5
