"""Recovery: checkpoint + log-tail replay, idempotence, reopen."""

import os
import random

import pytest

from repro.cluster.block import BlockStore
from repro.cluster.topology import ClusterTopology
from repro.core.parity import EARPlanner
from repro.faults.crash import DRILL_CODE, run_crash_workload
from repro.hdfs.files import FileNamespace
from repro.journal import (
    CrashPoint,
    MetadataJournal,
    SimulatedCrash,
    recover,
    verify_journal,
    verify_stripe_consistency,
)
from repro.journal.records import (
    EncodeStripe,
    NewStripe,
    PlaceReplica,
    SealStripe,
    StripeAddBlock,
)
from repro.journal.checkpoint import write_checkpoint
from repro.journal.wal import JournalWriter, list_segments, scan_journal
from tests.journal.reference_codec import encode_line, encode_record


def _topology():
    return ClusterTopology(nodes_per_rack=2, num_racks=2)


def _small_workload(directory, crash_at=None, track_fingerprints=False,
                    checkpoint_after=None):
    """A fixed metadata op sequence touching every simple record type."""
    journal = MetadataJournal(
        directory, segment_records=4, crash_at=crash_at,
        track_fingerprints=track_fingerprints,
    )
    store = BlockStore(_topology())
    namespace = FileNamespace()
    journal.attach(block_store=store, namespace=namespace)

    namespace.create("/f")
    b0 = store.create_block(100)
    store.add_replica(b0.block_id, 0, is_primary=True)
    store.add_replica(b0.block_id, 2)
    namespace.append_block("/f", b0.block_id, 100)
    if checkpoint_after == "replicas":
        journal.checkpoint()
    b1 = store.create_block(200)
    store.add_replica(b1.block_id, 1, is_primary=True)
    store.mark_corrupted(b0.block_id, 2)
    store.clear_corrupted(b0.block_id, 2)
    store.move_replica(b0.block_id, 2, 3)
    journal.node_dead(1)
    journal.node_alive(1)
    store.remove_replica(b1.block_id, 1)
    journal.flush()
    return journal, store, namespace


class TestReplay:
    def test_recovery_reproduces_the_final_state(self, tmp_path):
        directory = str(tmp_path)
        journal, _store, _ns = _small_workload(directory)
        golden = journal.current_fingerprint()
        journal.close()
        recovered = recover(directory, _topology())
        assert recovered.fingerprint() == golden
        assert recovered.stats.errors == []
        assert recovered.stats.replayed_ops > 0

    def test_recovery_is_deterministic(self, tmp_path):
        directory = str(tmp_path)
        journal, _store, _ns = _small_workload(directory)
        journal.close()
        first = recover(directory, _topology()).fingerprint()
        second = recover(directory, _topology()).fingerprint()
        assert first == second

    def test_checkpoint_plus_tail(self, tmp_path):
        directory = str(tmp_path)
        journal, _store, _ns = _small_workload(
            directory, checkpoint_after="replicas"
        )
        golden = journal.current_fingerprint()
        journal.close()
        recovered = recover(directory, _topology())
        assert recovered.stats.checkpoint_seq > 0
        assert recovered.fingerprint() == golden

    def test_checkpoint_with_pruned_segments(self, tmp_path):
        directory = str(tmp_path)
        journal = MetadataJournal(directory, segment_records=2)
        store = BlockStore(_topology())
        journal.attach(block_store=store)
        for index in range(6):
            block = store.create_block(64 + index)
            store.add_replica(block.block_id, index % 4, is_primary=True)
        journal.checkpoint(prune=True)
        block = store.create_block(999)
        store.add_replica(block.block_id, 0, is_primary=True)
        golden = journal.current_fingerprint()
        journal.close()
        assert len(list_segments(directory)) < 7
        recovered = recover(directory, _topology())
        assert recovered.fingerprint() == golden

    def test_duplicate_record_replay_is_idempotent(self, tmp_path):
        directory = str(tmp_path)
        journal, store, _ns = _small_workload(directory)
        golden = journal.current_fingerprint()
        last = journal.last_seq
        journal.close()
        # A crashed writer could conceivably re-log an already-applied
        # mutation; replay must skip it rather than double-apply.
        duplicate = encode_record(
            PlaceReplica(block_id=0, node_id=0, is_primary=True)
        )
        writer = JournalWriter(directory)
        writer.write(encode_line(last + 1, duplicate))
        writer.close()
        recovered = recover(directory, _topology())
        assert recovered.fingerprint() == golden
        assert recovered.stats.skipped_ops >= 1
        assert recovered.stats.errors == []


def _write_log(directory, records):
    """A CRC-valid log holding exactly ``records``, in order."""
    writer = JournalWriter(directory)
    for seq, record in enumerate(records, start=1):
        writer.write(encode_line(seq, encode_record(record)))
    writer.close()


class TestImpossibleRecords:
    """A CRC-valid record the validity test calls impossible is reported
    in ``stats.errors`` (and by ``verify_journal``), never raised."""

    def _recover(self, directory, records, k=2):
        _write_log(directory, [NewStripe(stripe_id=0, k=k)] + records)
        recovered = recover(directory, _topology(), k=k)
        assert len(recovered.stats.errors) == 1, recovered.stats.errors
        assert not verify_journal(directory).ok
        return recovered

    def test_seal_of_a_short_stripe(self, tmp_path):
        recovered = self._recover(str(tmp_path), [
            StripeAddBlock(stripe_id=0, block_id=7, seal_when_full=False),
            SealStripe(stripe_id=0),
        ])
        assert "needs exactly k=2" in recovered.stats.errors[0]
        assert recovered.stores.stripes.stripe(0).state == "open"

    def test_block_added_to_a_sealed_stripe(self, tmp_path):
        recovered = self._recover(str(tmp_path), [
            StripeAddBlock(stripe_id=0, block_id=7),
            StripeAddBlock(stripe_id=0, block_id=8),
            StripeAddBlock(stripe_id=0, block_id=9),
        ])
        assert "not open" in recovered.stats.errors[0]
        assert recovered.stores.stripes.stripe(0).block_ids == [7, 8]

    def test_commit_of_an_unknown_stripe(self, tmp_path):
        recovered = self._recover(str(tmp_path), [
            EncodeStripe(stripe_id=5, parity_nodes=(1,), parity_size=100,
                         retained=()),
        ])
        assert "unknown stripe id 5" in recovered.stats.errors[0]

    def test_commit_of_an_open_stripe(self, tmp_path):
        recovered = self._recover(str(tmp_path), [
            EncodeStripe(stripe_id=0, parity_nodes=(1,), parity_size=100,
                         retained=()),
        ])
        assert "not sealed" in recovered.stats.errors[0]
        assert recovered.stores.stripes.stripe(0).parity_block_ids == []


class TestCrashes:
    def test_torn_tail_recovers_previous_record(self, tmp_path):
        base = str(tmp_path)
        golden_dir = os.path.join(base, "golden")
        journal, _store, _ns = _small_workload(
            golden_dir, track_fingerprints=True
        )
        fps = dict(journal.fingerprints)
        fps[journal.last_seq + 1] = journal.current_fingerprint()
        seq = journal.last_seq - 2
        journal.close()

        crash_dir = os.path.join(base, "crashed")
        with pytest.raises(SimulatedCrash):
            _small_workload(
                crash_dir, crash_at=CrashPoint(seq=seq, phase="torn")
            )
        recovered = recover(crash_dir, _topology())
        assert recovered.stats.torn_tail
        # torn record seq is not durable: expect the state before it.
        assert recovered.fingerprint() == fps[seq]

    def test_corrupted_mid_log_record_is_surfaced(self, tmp_path):
        directory = str(tmp_path)
        journal, _store, _ns = _small_workload(directory)
        journal.close()
        first_segment = list_segments(directory)[0][1]
        with open(first_segment, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        lines[0] = lines[0].replace('"type"', '"tyqe"', 1)
        with open(first_segment, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        recovered = recover(directory, _topology())
        assert recovered.stats.errors
        assert not verify_journal(directory).ok


class TestReopen:
    def test_reopened_journal_continues_the_sequence(self, tmp_path):
        directory = str(tmp_path)
        journal, _store, _ns = _small_workload(directory)
        last = journal.last_seq
        journal.close()
        recovered = recover(directory, _topology())
        reopened = recovered.reopen_journal()
        block = recovered.stores.blocks.create_block(500)
        recovered.stores.blocks.add_replica(block.block_id, 0, is_primary=True)
        reopened.flush()
        assert reopened.last_seq == last + 2
        reopened.close()
        report = verify_journal(directory)
        assert report.ok, report.summary()
        again = recover(directory, _topology())
        assert again.fingerprint() == reopened.current_fingerprint()

    def test_crash_at_an_encode_then_reopen_recovers_idempotently(
        self, tmp_path
    ):
        """A crash just after an ``encode_stripe`` is durable; recovery,
        reopen, more writes and encodes, close, then two recoveries: both
        give the live state, and verify replays past every checkpoint."""
        golden = run_crash_workload(str(tmp_path / "golden"), seed=11)
        golden.journal.close()
        encodes = [
            envelope["seq"]
            for envelope in scan_journal(golden.directory).envelopes
            if envelope["type"] == "encode_stripe"
        ]
        directory = str(tmp_path / "crashed")
        with pytest.raises(SimulatedCrash):
            run_crash_workload(
                directory, seed=11,
                crash_at=CrashPoint(seq=encodes[0], phase="after"),
            )
        topology, k = golden.topology, DRILL_CODE.k
        first = recover(directory, topology, k=k)
        assert first.stats.errors == []
        assert verify_stripe_consistency(first.stores) == []
        journal = first.reopen_journal(checkpoint_records=2)
        stores = journal.stores
        for node_ids in ((0, 5, 6), (4, 9, 10), (8, 13, 14)):
            stores.allocate_block(
                stores.blocks.next_block_id, 4096, None, node_ids
            )
        planner = EARPlanner(
            topology, stores.blocks, DRILL_CODE, rng=random.Random(3)
        )
        sealed = stores.stripes.sealed_stripes()
        assert len(sealed) >= 2
        for stripe in sealed:
            before = journal.current_state()
            plan = planner.plan(stripe)
            stores.encode_stripe(
                stripe.stripe_id, plan.parity_nodes, 4096,
                plan.retained.items(),
            )
        live = journal.current_fingerprint()
        journal.close()

        for _attempt in range(2):
            again = recover(directory, topology, k=k)
            assert again.stats.errors == []
            assert again.stats.checkpoint_seq > encodes[0]
            assert again.fingerprint() == live
            assert verify_stripe_consistency(again.stores) == []
        report = verify_journal(directory)
        assert report.ok, report.summary()
        assert report.checkpoints == 2
        # The replay check reaches the log's last record: a checkpoint
        # claiming it without its effect is caught.
        write_checkpoint(directory, journal.last_seq, before)
        report = verify_journal(directory)
        assert any(
            f"replay of records 1..{journal.last_seq}" in error
            for error in report.errors
        ), report.summary()
