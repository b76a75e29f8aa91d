"""BlockStore: replica bookkeeping invariants."""

import pytest

from repro.cluster.block import BlockKind, BlockStore
from repro.core.stripe import PreEncodingStore
from repro.journal.journal import MetadataJournal
from repro.journal.state import Stores


@pytest.fixture
def store(medium_topology):
    return BlockStore(medium_topology)


class TestBlockLifecycle:
    def test_create_assigns_sequential_ids(self, store):
        blocks = [store.create_block(64) for __ in range(3)]
        assert [b.block_id for b in blocks] == [0, 1, 2]

    def test_create_rejects_bad_size(self, store):
        with pytest.raises(ValueError):
            store.create_block(0)

    def test_parity_block_rejects_zero_size_before_journaling(
        self, store, tmp_path
    ):
        journal = MetadataJournal(str(tmp_path))
        journal.attach(block_store=store)
        stripes = PreEncodingStore(1)
        journal.attach(stripe_store=stripes)
        stripe = stripes.new_stripe()
        stripes.add_block(stripe.stripe_id, store.create_block(64).block_id)
        before = journal.last_seq
        with pytest.raises(ValueError, match="positive"):
            journal.stores.encode_stripe(stripe.stripe_id, [1], 0, ())
        assert journal.last_seq == before
        assert len(store) == 1
        journal.close()

    def test_parity_kind(self, store):
        parity = store.create_block(64, kind=BlockKind.PARITY, stripe_id=3)
        assert parity.is_parity()
        assert parity.stripe_id == 3

    def test_allocated_block_is_stamped_with_its_stripe(self, store):
        stripes = PreEncodingStore(2)
        stripe = stripes.new_stripe()
        block = Stores(blocks=store, stripes=stripes).allocate_block(
            0, 64, stripe.stripe_id, [0, 5, 6]
        )
        assert block.stripe_id == stripe.stripe_id
        assert store.block(0).stripe_id == stripe.stripe_id
        assert stripe.block_ids == [0]
        assert store.replica_nodes(0) == (0, 5, 6)
        assert store.primary_node(0) == 0
        assert store.live_members(stripe.stripe_id) == 1

    def test_unknown_block_raises(self, store):
        with pytest.raises(KeyError):
            store.block(99)

    def test_contains_and_len(self, store):
        block = store.create_block(64)
        assert block.block_id in store
        assert 42 not in store
        assert len(store) == 1

    def test_blocks_iterates_all(self, store):
        ids = {store.create_block(64).block_id for __ in range(4)}
        assert {b.block_id for b in store.blocks()} == ids


class TestReplicaManagement:
    def test_add_and_query(self, store):
        block = store.create_block(64)
        store.add_replicas(block.block_id, [0, 5, 6])
        assert store.replica_nodes(block.block_id) == (0, 5, 6)
        assert store.primary_node(block.block_id) == 0

    def test_replica_count_tracks_adds_and_removes(self, store):
        block = store.create_block(64)
        assert store.replica_count(block.block_id) == 0
        store.add_replicas(block.block_id, [0, 5, 6])
        store.remove_replica(block.block_id, 5)
        assert store.replica_count(block.block_id) == 2
        with pytest.raises(KeyError):
            store.replica_count(999)

    def test_replica_racks(self, store):
        block = store.create_block(64)
        store.add_replicas(block.block_id, [0, 5, 6])  # racks 0, 1, 1
        assert store.replica_racks(block.block_id) == (0, 1, 1)

    def test_duplicate_node_rejected(self, store):
        block = store.create_block(64)
        store.add_replica(block.block_id, 3)
        with pytest.raises(ValueError):
            store.add_replica(block.block_id, 3)

    def test_unknown_node_rejected(self, store):
        block = store.create_block(64)
        with pytest.raises(KeyError):
            store.add_replica(block.block_id, 999)

    def test_remove_replica(self, store):
        block = store.create_block(64)
        store.add_replicas(block.block_id, [1, 2])
        store.remove_replica(block.block_id, 1)
        assert store.replica_nodes(block.block_id) == (2,)

    def test_remove_missing_replica_raises(self, store):
        block = store.create_block(64)
        store.add_replica(block.block_id, 1)
        with pytest.raises(KeyError):
            store.remove_replica(block.block_id, 2)

    def test_retain_only(self, store):
        block = store.create_block(64)
        store.add_replicas(block.block_id, [1, 2, 3])
        store.retain_only(block.block_id, 2)
        assert store.replica_nodes(block.block_id) == (2,)

    def test_retain_only_missing_raises(self, store):
        block = store.create_block(64)
        store.add_replica(block.block_id, 1)
        with pytest.raises(KeyError):
            store.retain_only(block.block_id, 9)

    def test_move_replica(self, store):
        block = store.create_block(64)
        store.add_replicas(block.block_id, [1, 2])
        store.move_replica(block.block_id, 2, 7)
        assert set(store.replica_nodes(block.block_id)) == {1, 7}
        assert block.block_id in store.blocks_on_node(7)
        assert block.block_id not in store.blocks_on_node(2)

    def test_replicas_keep_placement_order_and_primary_flags(self, store):
        block = store.create_block(64)
        store.add_replicas(block.block_id, [4, 1, 2])
        store.add_replica(block.block_id, 6, is_primary=True)
        store.remove_replica(block.block_id, 1)
        store.move_replica(block.block_id, 4, 7)
        assert [
            (replica.node_id, replica.is_primary)
            for replica in store.replicas(block.block_id)
        ] == [(2, False), (6, True), (7, False)]
        assert store.primary_node(block.block_id) == 6

    def test_replica_nodes_is_the_stored_tuple_until_a_change(self, store):
        block = store.create_block(64)
        store.add_replicas(block.block_id, [1, 2])
        nodes = store.replica_nodes(block.block_id)
        assert store.replica_nodes(block.block_id) is nodes
        store.retain_only(block.block_id, 2)
        assert nodes == (1, 2)  # a handed-out tuple never changes
        assert store.replica_nodes(block.block_id) == (2,)

    def test_primary_gone_after_retention_elsewhere(self, store):
        block = store.create_block(64)
        store.add_replicas(block.block_id, [1, 2])
        store.retain_only(block.block_id, 2)
        assert store.primary_node(block.block_id) is None


class TestAggregates:
    def test_blocks_on_node(self, store):
        a, b = store.create_block(64), store.create_block(64)
        store.add_replica(a.block_id, 4)
        store.add_replica(b.block_id, 4)
        assert store.blocks_on_node(4) == {a.block_id, b.block_id}

    def test_blocks_in_rack(self, store):
        a = store.create_block(64)
        store.add_replicas(a.block_id, [5, 12])  # racks 1 and 2
        assert a.block_id in store.blocks_in_rack(1)
        assert a.block_id in store.blocks_in_rack(2)
        assert a.block_id not in store.blocks_in_rack(0)

    def test_counts_sum_to_total_replicas(self, store, rng):
        total = 0
        for __ in range(30):
            block = store.create_block(64)
            nodes = rng.sample(range(40), 3)
            store.add_replicas(block.block_id, nodes)
            total += 3
        per_node = store.replica_count_per_node()
        per_rack = store.replica_count_per_rack()
        assert sum(per_node.values()) == total
        assert sum(per_rack.values()) == total

    def test_bytes_on_node(self, store):
        a = store.create_block(100)
        b = store.create_block(50)
        store.add_replica(a.block_id, 0)
        store.add_replica(b.block_id, 0)
        assert store.bytes_on_node(0) == 150
