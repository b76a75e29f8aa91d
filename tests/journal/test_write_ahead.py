"""The write-ahead property, checked record by record at run time.

Every metadata change is one record's validity test, append and
transition (:func:`~repro.journal.records.commit`), and replay runs the
same test and transition over the log.  This module checks that over
one real journal that holds every record type: the crash drill's
workload (:func:`~repro.faults.crash.run_crash_workload`) followed by a
short tail for the five types the drill never writes.

The log is replayed from empty stores.  Before record ``s`` is applied,
the replayed state must equal ``journal.fingerprints[s]``, the live state
at the entry of that append; after the last record it must equal the
live final state.  A mutation applied before its record, or never
journaled at all, breaks the equality at the next record.  The seeded
mutations at the bottom show that each kind of bug is caught, and where.
:class:`TestEveryRecordType` drives each record type once through its
live mutator and compares the whole captured state with replay after
every record.
"""

from dataclasses import dataclass
from typing import ClassVar

import pytest

import repro.journal.state as state_module
from repro.cluster.block import BlockStore
from repro.cluster.topology import ClusterTopology
from repro.core.stripe import PreEncodingStore
from repro.faults.crash import run_crash_workload
from repro.hdfs.files import FileNamespace
from repro.journal.journal import MetadataJournal
from repro.journal.recovery import Replayer
from repro.journal.records import RECORD_TYPES, JournalRecord, commit
from repro.journal.state import capture_state, state_fingerprint
from repro.journal.wal import scan_journal


SEEDS = (0, 101, 202)


def drive_every_record_type(directory, seed):
    """The crash drill's workload, then the record types it never writes:
    a relocation request and its service, and blocks created and added to
    a stripe without a NameNode, then sealed."""
    run = run_crash_workload(
        directory, seed, track_fingerprints=True, checkpoint_records=None
    )
    journal, blocks = run.journal, run.namenode.block_store
    stripes = run.namenode.pre_encoding_store
    journal.relocation_requested(0)
    journal.relocation_served(0)
    stripe = stripes.new_stripe()
    for _ in range(stripes.k):
        block = blocks.create_block(1)
        stripes.add_block(stripe.stripe_id, block.block_id, seal_when_full=False)
    stripes.seal(stripe.stripe_id)
    journal.flush()
    return run


def first_divergence(run):
    """The first seq whose replayed entry state differs from the live one
    (``last_seq + 1`` when only the final state does), or ``None``."""
    journal = run.journal
    replayer = Replayer(None, run.topology, run.code.k)

    def replayed():
        return state_fingerprint(replayer.stores)

    for envelope in scan_journal(run.directory).envelopes:
        seq = envelope["seq"]
        if replayed() != journal.fingerprints[seq]:
            return seq
        replayer.apply(envelope)
    if replayed() != journal.current_fingerprint():
        return journal.last_seq + 1
    return None


def logged_types(run):
    """The type tags the run's log holds."""
    return {envelope["type"] for envelope in scan_journal(run.directory).envelopes}


def unhandled_types():
    """Registered type tags with no validity test or transition bound."""
    return {
        tag for tag, cls in RECORD_TYPES.items()
        if not (hasattr(cls, "check") and hasattr(cls, "apply"))
    }


def first_seq_of(run, type_tag):
    """The seq of the first record of ``type_tag`` in the run's log."""
    return next(
        envelope["seq"] for envelope in scan_journal(run.directory).envelopes
        if envelope["type"] == type_tag
    )


@pytest.fixture(scope="module", params=SEEDS, ids=lambda seed: f"seed{seed}")
def run(request, tmp_path_factory):
    directory = tmp_path_factory.mktemp(f"wal-{request.param}")
    result = drive_every_record_type(str(directory), request.param)
    yield result
    result.journal.close()


class TestWriteAhead:
    def test_replay_matches_live_state_at_every_record(self, run):
        assert first_divergence(run) is None

    def test_log_holds_every_record_type(self, run):
        # A record type no store method produces is missing here.
        assert logged_types(run) == set(RECORD_TYPES)

    def test_every_record_type_has_a_replay_handler(self):
        assert unhandled_types() == set()


@dataclass(frozen=True)
class Orphan(JournalRecord):
    """A record type with neither a producer nor a transition."""

    record_type: ClassVar[str] = "orphan"

    stripe_id: int


class TestSeededMutations:
    """Each mutation reintroduces one bug class; the check must name it."""

    def test_mutation_before_its_append_fails_at_that_record(
        self, tmp_path, monkeypatch
    ):
        def apply_first(owner, record_class, fields):
            if record_class.check(owner, fields) is not None:
                return commit(owner, record_class, fields)
            result = record_class.apply(owner, fields)
            if owner.journal is not None:
                owner.journal.append(record_class, fields)
            return result

        monkeypatch.setattr(state_module, "commit", apply_first)
        run = drive_every_record_type(str(tmp_path), seed=0)
        run.journal.close()
        # The first block write is the first record to see its change.
        assert first_divergence(run) == first_seq_of(run, "allocate_block")

    def test_journal_bypass_fails_at_the_next_record(
        self, tmp_path, monkeypatch
    ):
        next_seqs = []

        def move_replica(self, block_id, src, dst):
            next_seqs.append(self.journal.last_seq + 1)
            self.apply_relocate((block_id, src, dst))

        monkeypatch.setattr(BlockStore, "move_replica", move_replica)
        run = drive_every_record_type(str(tmp_path), seed=0)
        run.journal.close()
        assert len(next_seqs) == 1
        assert first_divergence(run) == next_seqs[0]
        assert "relocate" not in logged_types(run)

    def test_record_type_without_handler_or_producer_is_named(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setitem(RECORD_TYPES, Orphan.record_type, Orphan)
        run = drive_every_record_type(str(tmp_path), seed=0)
        run.journal.close()
        assert set(RECORD_TYPES) - logged_types(run) == {"orphan"}
        assert unhandled_types() == {"orphan"}


def every_record_type_once(journal):
    """Call one live mutator per record type on journaled empty stores;
    yield after each call (each appends exactly one record)."""
    blocks = BlockStore(ClusterTopology(nodes_per_rack=2, num_racks=3))
    stripes, namespace = PreEncodingStore(2), FileNamespace()
    journal.attach(blocks, stripes, namespace)
    stores = journal.stores
    steps = [
        lambda: blocks.create_block(100),
        lambda: blocks.add_replica(0, 0, is_primary=True),
        lambda: blocks.add_replica(0, 2),
        lambda: blocks.create_block(100),
        lambda: blocks.add_replica(1, 3, is_primary=True),
        lambda: blocks.add_replica(1, 4),
        lambda: stripes.new_stripe(core_rack=0, target_racks=[0, 1, 2]),
        lambda: stripes.add_block(0, 0, seal_when_full=False),
        lambda: stripes.add_block(0, 1, seal_when_full=False),
        lambda: stripes.seal(0),
        lambda: blocks.mark_corrupted(1, 4),
        lambda: blocks.clear_corrupted(1, 4),
        lambda: blocks.move_replica(0, 2, 5),
        lambda: stores.encode_stripe(0, [1], 100, [(0, 0), (1, 3)]),
        lambda: stripes.new_stripe(),
        lambda: stores.allocate_block(3, 100, 1, [0, 2, 5]),
        lambda: stores.allocate_block(4, 100, 1, [1, 3, 4]),
        lambda: blocks.remove_replica(3, 5),
        lambda: journal.relocation_requested(0),
        lambda: journal.relocation_served(0),
        lambda: journal.node_dead(4),
        lambda: journal.node_alive(4),
        lambda: namespace.create("/a"),
        lambda: namespace.append_block("/a", 0, 100),
        lambda: namespace.append_block("/a", 1, 100),
        lambda: namespace.delete("/a"),
    ]
    for step in steps:
        before = journal.last_seq
        step()
        assert journal.last_seq == before + 1, step
        yield


class TestEveryRecordType:
    def test_live_and_replayed_states_agree_after_every_record(self, tmp_path):
        journal = MetadataJournal(str(tmp_path), checkpoint_records=None)
        live = [capture_state(journal.stores)
                for __ in every_record_type_once(journal)]
        journal.close()
        envelopes = scan_journal(str(tmp_path)).envelopes
        assert {envelope["type"] for envelope in envelopes} == set(RECORD_TYPES)
        topology = journal.stores.blocks.topology
        replayer = Replayer(None, topology, k=2)
        for envelope, expected in zip(envelopes, live):
            replayer.apply(envelope)
            assert capture_state(replayer.stores) == expected, envelope
        assert replayer.stats.errors == []
        assert replayer.stats.replayed_ops == len(live)
