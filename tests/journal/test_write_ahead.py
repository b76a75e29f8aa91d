"""The write-ahead property, checked record by record at run time.

Every journaled store must append a mutation's record *before* it
touches memory, every record type needs a producer that a store method
reaches, and every record type needs a replay handler.  This module
checks all three over one real journal that holds every record type: the
crash drill's workload (:func:`~repro.faults.crash.run_crash_workload`)
followed by a short tail for the three types the drill never writes.

The log is replayed from empty stores.  Before record ``s`` is applied,
the replayed state must equal ``journal.fingerprints[s]``, the live state
at the entry of that append; after the last record it must equal the
live final state.  A mutation applied before its record, or never
journaled at all, breaks the equality at the next record.  The seeded
mutations at the bottom show that each kind of bug is caught, and where.
"""

from dataclasses import dataclass
from typing import ClassVar

import pytest

from repro.cluster.block import BlockStore
from repro.faults.crash import run_crash_workload
from repro.journal.recovery import Replayer
from repro.journal.records import RECORD_TYPES, JournalRecord, MarkCorrupted
from repro.journal.state import state_fingerprint
from repro.journal.wal import scan_journal

SEEDS = (0, 101, 202)


def drive_every_record_type(directory, seed):
    """The crash drill's workload, then the record types it never writes:
    a relocation request and its service, and a deferred seal."""
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
        return state_fingerprint(
            replayer.blocks, replayer.stripes, replayer.namespace,
            replayer.dead_nodes, replayer.pending_relocations,
        )

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
    """Registered type tags :class:`Replayer` has no ``_on_<tag>`` for."""
    return {tag for tag in RECORD_TYPES if not hasattr(Replayer, f"_on_{tag}")}


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
    """A record type with neither a producer nor a replay handler."""

    record_type: ClassVar[str] = "orphan"

    stripe_id: int


class TestSeededMutations:
    """Each mutation reintroduces one bug class; the check must name it."""

    def test_mutation_before_its_append_fails_at_that_record(
        self, tmp_path, monkeypatch
    ):
        def mark_corrupted(self, block_id, node_id):
            self._corrupted.add((block_id, node_id))
            if self.journal is not None:
                self.journal.append(
                    MarkCorrupted(block_id=block_id, node_id=node_id)
                )

        monkeypatch.setattr(BlockStore, "mark_corrupted", mark_corrupted)
        run = drive_every_record_type(str(tmp_path), seed=0)
        run.journal.close()
        assert first_divergence(run) == first_seq_of(run, "mark_corrupted")

    def test_journal_bypass_fails_at_the_next_record(
        self, tmp_path, monkeypatch
    ):
        next_seqs = []

        def move_replica(self, block_id, src, dst):
            next_seqs.append(self.journal.last_seq + 1)
            saved, self.journal = self.journal, None
            try:
                self.remove_replica(block_id, src)
                self.add_replica(block_id, dst)
            finally:
                self.journal = saved

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
