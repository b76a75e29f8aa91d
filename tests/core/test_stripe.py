"""Stripe lifecycle and the pre-encoding store."""

import pytest

from repro.cluster.block import BlockStore
from repro.cluster.topology import ClusterTopology
from repro.core.stripe import PreEncodingStore, StripeState
from repro.journal.state import Stores


def open_stripe(k, *block_ids):
    """A store holding one open stripe of width ``k`` with ``block_ids``."""
    store = PreEncodingStore(k)
    stripe = store.new_stripe()
    for block_id in block_ids:
        store.add_block(stripe.stripe_id, block_id, seal_when_full=False)
    return store, stripe


class TestStripeLifecycle:
    def test_open_then_seal(self):
        store, stripe = open_stripe(3, 0, 1, 2)
        assert stripe.is_full()
        store.seal(stripe.stripe_id)
        assert stripe.state == StripeState.SEALED

    def test_seal_requires_exactly_k(self):
        store, stripe = open_stripe(3, 0)
        with pytest.raises(ValueError):
            store.seal(stripe.stripe_id)

    def test_add_beyond_k_rejected(self):
        store, stripe = open_stripe(2, 0, 1)
        with pytest.raises(ValueError):
            store.add_block(stripe.stripe_id, 2, seal_when_full=False)

    def test_duplicate_block_rejected(self):
        store, stripe = open_stripe(3, 7)
        with pytest.raises(ValueError):
            store.add_block(stripe.stripe_id, 7)

    def test_add_to_sealed_rejected(self):
        store, stripe = open_stripe(1, 0)
        store.seal(stripe.stripe_id)
        with pytest.raises(ValueError):
            store.add_block(stripe.stripe_id, 1)

    def test_double_seal_rejected(self):
        store, stripe = open_stripe(1, 0)
        store.seal(stripe.stripe_id)
        with pytest.raises(ValueError):
            store.seal(stripe.stripe_id)

    def test_mark_encoded(self):
        blocks = BlockStore(ClusterTopology(nodes_per_rack=2, num_racks=2))
        store, stripe = open_stripe(
            2, blocks.create_block(64).block_id, blocks.create_block(64).block_id
        )
        store.seal(stripe.stripe_id)
        Stores(blocks=blocks, stripes=store).encode_stripe(
            stripe.stripe_id, [2, 3], 64, ()
        )
        assert stripe.state == StripeState.ENCODED
        assert stripe.all_block_ids() == [0, 1, 2, 3]

    def test_mark_encoded_requires_sealed(self):
        blocks = BlockStore(ClusterTopology(nodes_per_rack=2, num_racks=2))
        store, stripe = open_stripe(2)
        with pytest.raises(ValueError):
            Stores(blocks=blocks, stripes=store).encode_stripe(
                stripe.stripe_id, [2], 64, ()
            )
        assert len(blocks) == 0


class TestPreEncodingStore:
    def test_auto_seal_when_full(self):
        store = PreEncodingStore(2)
        stripe = store.new_stripe(core_rack=3)
        store.add_block(stripe.stripe_id, 0)
        store.add_block(stripe.stripe_id, 1)
        assert stripe.state == StripeState.SEALED

    def test_no_auto_seal_option(self):
        store = PreEncodingStore(1)
        stripe = store.new_stripe()
        store.add_block(stripe.stripe_id, 0, seal_when_full=False)
        assert stripe.state == StripeState.OPEN

    def test_state_filters(self):
        store = PreEncodingStore(1)
        a = store.new_stripe()
        store.add_block(a.stripe_id, 0)
        b = store.new_stripe()
        assert store.sealed_stripes() == [a]
        assert store.open_stripes() == [b]
        assert store.encoded_stripes() == []

    def test_block_to_stripe_lookup(self):
        store = PreEncodingStore(2)
        stripe = store.new_stripe()
        store.add_block(stripe.stripe_id, 42)
        assert store.stripe_of_block(42) is stripe
        assert store.stripe_of_block(99) is None

    def test_unknown_stripe(self):
        store = PreEncodingStore(2)
        with pytest.raises(KeyError):
            store.stripe(5)

    def test_target_racks_stored_as_tuple(self):
        store = PreEncodingStore(2)
        stripe = store.new_stripe(core_rack=0, target_racks=[0, 3])
        assert stripe.target_racks == (0, 3)

    def test_iteration_and_len(self):
        store = PreEncodingStore(2)
        store.new_stripe()
        store.new_stripe()
        assert len(store) == 2
        assert len(list(store)) == 2

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            PreEncodingStore(0)

    def test_ids_are_unique_and_increasing(self):
        store = PreEncodingStore(2)
        ids = [store.new_stripe().stripe_id for __ in range(5)]
        assert ids == sorted(set(ids))
