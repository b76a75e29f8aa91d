"""NameNode: allocation, metadata, planner selection, encoding records."""

import random

import pytest

from repro.cluster.block import BlockKind
from repro.core.ear import EncodingAwareReplication
from repro.core.parity import EARPlanner, RRPlanner
from repro.core.random_replication import RandomReplication
from repro.core.stripe import PreEncodingStore, StripeState
from repro.erasure.codec import CodeParams
from repro.hdfs.namenode import NameNode


@pytest.fixture
def ear_namenode(large_topology, facebook_code):
    policy = EncodingAwareReplication(
        large_topology, facebook_code, rng=random.Random(1)
    )
    return NameNode(large_topology, policy)


@pytest.fixture
def rr_namenode(large_topology, facebook_code):
    policy = RandomReplication(
        large_topology,
        rng=random.Random(1),
        store=PreEncodingStore(facebook_code.k),
    )
    return NameNode(large_topology, policy)


class TestAllocation:
    def test_allocate_records_replicas(self, ear_namenode):
        block, decision = ear_namenode.allocate_block()
        assert ear_namenode.block_locations(block.block_id) == decision.node_ids
        assert block.size == 64 * 1024 * 1024

    def test_custom_size(self, ear_namenode):
        block, __ = ear_namenode.allocate_block(size=1024)
        assert block.size == 1024

    def test_stripe_id_propagated_to_block(self, ear_namenode):
        block, decision = ear_namenode.allocate_block()
        assert decision.stripe_id is not None
        assert (
            ear_namenode.block_store.block(block.block_id).stripe_id
            == decision.stripe_id
        )

    def test_writer_hint(self, ear_namenode, large_topology):
        __, decision = ear_namenode.allocate_block(writer_node=30)
        assert decision.core_rack == large_topology.rack_of(30)


class TestStripeVisibility:
    def test_sealed_stripes_flow_through(self, ear_namenode, facebook_code):
        for __ in range(facebook_code.k * 25):
            ear_namenode.allocate_block(writer_node=0)
        assert len(ear_namenode.sealed_stripes()) > 0

    def test_pre_encoding_store_exposed(self, rr_namenode):
        assert rr_namenode.pre_encoding_store is rr_namenode.policy.store


class TestStripeOf:
    def test_data_and_parity_members_of_an_encoded_stripe(
        self, ear_namenode, facebook_code
    ):
        for __ in range(facebook_code.k * 3):
            ear_namenode.allocate_block(writer_node=0)
        stripe = ear_namenode.sealed_stripes()[0]
        assert ear_namenode.stripe_of(stripe.block_ids[0]) is stripe
        planner = ear_namenode.make_planner(
            facebook_code, rng=random.Random(2)
        )
        parity = ear_namenode.record_encoding(stripe, planner.plan(stripe))
        # Parity blocks are not in the membership index: they resolve
        # through the stripe id stamped on the block.
        store = ear_namenode.pre_encoding_store
        assert store.stripe_of_block(parity[0].block_id) is None
        assert ear_namenode.stripe_of(parity[0].block_id) is stripe
        assert ear_namenode.stripe_of(stripe.block_ids[-1]) is stripe

    def test_none_without_a_pre_encoding_store(self, large_topology):
        namenode = NameNode(
            large_topology,
            RandomReplication(large_topology, rng=random.Random(1)),
        )
        block, __ = namenode.allocate_block()
        assert namenode.pre_encoding_store is None
        assert namenode.stripe_of(block.block_id) is None

    def test_none_for_unstriped_and_unknown_stripe_ids(self, rr_namenode):
        loose = rr_namenode.block_store.create_block(1000)
        assert rr_namenode.stripe_of(loose.block_id) is None
        stray = rr_namenode.block_store.create_block(1000, stripe_id=10_000)
        assert rr_namenode.stripe_of(stray.block_id) is None


class TestPlannerSelection:
    def test_ear_gets_ear_planner(self, ear_namenode, facebook_code):
        planner = ear_namenode.make_planner(facebook_code)
        assert isinstance(planner, EARPlanner)
        assert planner.c == ear_namenode.policy.c
        assert planner.reserve_core_for_parity == (
            ear_namenode.policy.core_reserve > 0
        )

    def test_rr_gets_rr_planner(self, rr_namenode, facebook_code):
        assert isinstance(rr_namenode.make_planner(facebook_code), RRPlanner)

    def test_reserve_override(self, ear_namenode, facebook_code):
        planner = ear_namenode.make_planner(
            facebook_code, reserve_core_for_parity=False
        )
        assert planner.reserve_core_for_parity is False


class TestRecordEncoding:
    def test_record_encoding_applies_plan(self, ear_namenode, facebook_code):
        for __ in range(facebook_code.k * 3):
            ear_namenode.allocate_block(writer_node=0)
        stripe = ear_namenode.sealed_stripes()[0]
        planner = ear_namenode.make_planner(
            facebook_code, rng=random.Random(2)
        )
        plan = planner.plan(stripe)
        parity_blocks = ear_namenode.record_encoding(stripe, plan)

        assert stripe.state == StripeState.ENCODED
        assert len(parity_blocks) == facebook_code.num_parity
        for parity, node in zip(parity_blocks, plan.parity_nodes):
            assert parity.kind == BlockKind.PARITY
            assert parity.stripe_id == stripe.stripe_id
            assert ear_namenode.block_locations(parity.block_id) == (node,)
        for block_id, node in plan.retained.items():
            assert ear_namenode.block_locations(block_id) == (node,)
