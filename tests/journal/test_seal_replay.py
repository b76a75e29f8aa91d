"""Deferred sealing must reach the journal and survive replay.

Regression test for a producer-less record type: ``SealStripe`` once
had a replay handler but no producer — a stripe filled with
``seal_when_full=False`` could only be sealed by calling
``Stripe.seal()`` directly on the dataclass, which bypasses the
write-ahead journal and is invisible to recovery.
:meth:`PreEncodingStore.seal` is the journaled path.  The general check,
that every record type is produced, handled and journaled before its
mutation, is ``tests/journal/test_write_ahead.py``.
"""

import pytest

from repro.cluster.block import BlockStore
from repro.cluster.topology import ClusterTopology
from repro.core.stripe import PreEncodingStore, StripeState
from repro.journal import MetadataJournal, recover
from repro.journal.records import SealStripe


def _topology():
    return ClusterTopology(nodes_per_rack=2, num_racks=2)


def _journaled_store(directory):
    journal = MetadataJournal(str(directory), segment_records=4)
    store = PreEncodingStore(2)
    journal.attach(block_store=BlockStore(_topology()), stripe_store=store)
    return journal, store


class TestSealJournaling:
    def test_seal_appends_a_record(self, tmp_path):
        journal, store = _journaled_store(tmp_path)
        stripe = store.new_stripe()
        store.add_block(stripe.stripe_id, 10, seal_when_full=False)
        store.add_block(stripe.stripe_id, 11, seal_when_full=False)
        assert stripe.state == StripeState.OPEN
        before = journal.last_seq
        store.seal(stripe.stripe_id)
        assert stripe.state == StripeState.SEALED
        assert journal.last_seq == before + 1

    def test_deferred_seal_survives_recovery(self, tmp_path):
        journal, store = _journaled_store(tmp_path)
        stripe = store.new_stripe()
        store.add_block(stripe.stripe_id, 10, seal_when_full=False)
        store.add_block(stripe.stripe_id, 11, seal_when_full=False)
        store.seal(stripe.stripe_id)
        journal.flush()
        recovered = recover(str(tmp_path), _topology())
        assert recovered.stats.errors == []
        replayed = recovered.stores.stripes.stripe(stripe.stripe_id)
        assert replayed.state == StripeState.SEALED

    def test_unsealed_stripe_stays_open_after_recovery(self, tmp_path):
        journal, store = _journaled_store(tmp_path)
        stripe = store.new_stripe()
        store.add_block(stripe.stripe_id, 10, seal_when_full=False)
        store.add_block(stripe.stripe_id, 11, seal_when_full=False)
        journal.flush()
        recovered = recover(str(tmp_path), _topology())
        replayed = recovered.stores.stripes.stripe(stripe.stripe_id)
        assert replayed.state == StripeState.OPEN

    def test_seal_validates_before_journaling(self, tmp_path):
        journal, store = _journaled_store(tmp_path)
        stripe = store.new_stripe()
        store.add_block(stripe.stripe_id, 10, seal_when_full=False)
        before = journal.last_seq
        with pytest.raises(ValueError, match="needs exactly k=2"):
            store.seal(stripe.stripe_id)
        # The failed seal journaled nothing (write-ahead invariant).
        assert journal.last_seq == before
        store.add_block(stripe.stripe_id, 11, seal_when_full=False)
        store.seal(stripe.stripe_id)
        with pytest.raises(ValueError, match="not open"):
            store.seal(stripe.stripe_id)

    def test_seal_without_journal_still_works(self):
        store = PreEncodingStore(1)
        stripe = store.new_stripe()
        store.add_block(stripe.stripe_id, 7, seal_when_full=False)
        store.seal(stripe.stripe_id)
        assert stripe.state == StripeState.SEALED

    def test_record_roundtrip(self):
        assert SealStripe(stripe_id=3).record_type == "seal_stripe"
