"""Periodic checkpoints: log-neutral, covered-segment skip, O(tail) replay."""

import os
import shutil

import pytest

from repro.cluster.block import BlockStore
from repro.cluster.topology import ClusterTopology
from repro.faults.crash import (
    DRILL_CODE,
    drill_topology,
    run_crash_matrix,
    run_crash_workload,
)
from repro.hdfs.files import FileNamespace
from repro.journal import MetadataJournal, recover, verify_journal
from repro.journal.checkpoint import list_checkpoints, write_checkpoint
from repro.journal.crashpoints import CRASH_PHASES, CrashPoint
from repro.journal.wal import list_segments, uncovered_segments
from repro.recovery.storm import run_storm

#: ``build_storm_cluster``'s default shape (topology is configuration).
STORM_SHAPE = {"nodes_per_rack": 4, "num_racks": 8}
CADENCE = 25


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def _segment_bytes(directory):
    return b"".join(
        _read(path) for _index, path in list_segments(directory)
    )


def _crash_workload(directory, seed, **journal_options):
    result = run_crash_workload(directory, seed, **journal_options)
    return result.journal, drill_topology(), DRILL_CODE.k


def _storm(scenario):
    def run(directory, seed, **journal_options):
        journal = MetadataJournal(
            directory, segment_records=64, **journal_options
        )
        report = run_storm(
            scenario, seed=seed, policy="ear", journal=journal,
            num_stripes=24,
        )
        assert report.clean, report.summary()
        return journal, ClusterTopology(**STORM_SHAPE), 4
    return run


WORKLOADS = {
    "crash_workload": _crash_workload,
    "rack_loss": _storm("rack_loss"),
    "scrub_storm": _storm("scrub_storm"),
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_checkpointed_recovery_equals_full_replay_equals_live(
    tmp_path, workload, seed
):
    with_dir, without_dir = str(tmp_path / "on"), str(tmp_path / "off")
    journal, topology, k = WORKLOADS[workload](
        with_dir, seed, checkpoint_records=CADENCE
    )
    live = journal.current_fingerprint()
    last_seq = journal.last_seq
    journal.close()
    plain, _topology, _k = WORKLOADS[workload](
        without_dir, seed, checkpoint_records=None
    )
    plain.close()

    # Checkpoints never touch the log: byte-identical segments.
    assert _segment_bytes(with_dir) == _segment_bytes(without_dir)
    assert list_checkpoints(without_dir) == []
    assert 1 <= len(list_checkpoints(with_dir)) <= 2

    tail = recover(with_dir, topology, k=k)
    assert tail.stats.errors == []
    assert tail.stats.checkpoint_seq > 0
    assert tail.stats.last_seq == last_seq
    # A due checkpoint is taken on the next append: the tail is bounded
    # by the cadence.
    assert tail.stats.replayed_ops <= CADENCE
    assert tail.fingerprint() == live

    full = recover(without_dir, topology, k=k)
    assert full.stats.checkpoint_seq == 0
    assert full.stats.replayed_ops + full.stats.skipped_ops == last_seq
    assert full.fingerprint() == live
    assert verify_journal(with_dir).ok, verify_journal(with_dir).summary()


def test_recovery_never_opens_a_covered_segment(tmp_path):
    """Garbage in every covered segment is invisible to recovery — and a
    truncated newest checkpoint widens the scan to the older one's
    coverage, no further."""
    directory = str(tmp_path)
    journal, topology, k = _storm("rack_loss")(
        directory, 0, checkpoint_records=CADENCE
    )
    live = journal.current_fingerprint()
    journal.close()
    (older_seq, _older), (newer_seq, newer) = list_checkpoints(directory)
    scanned = {path for _i, path in uncovered_segments(directory, newer_seq)}
    covered = [
        path for _i, path in list_segments(directory) if path not in scanned
    ]
    assert len(covered) >= 3
    saved = {path: _read(path) for path in covered}
    for path in covered:
        with open(path, "wb") as handle:
            handle.write(b"not a journal segment\n")
    recovered = recover(directory, topology, k=k)
    assert recovered.stats.errors == []
    assert recovered.stats.checkpoint_seq == newer_seq
    assert recovered.fingerprint() == live

    # Torn newest checkpoint: fall back to the older one, and scan from
    # *its* coverage (the segments between the two are needed again).
    with open(newer, "r+b") as handle:
        handle.truncate(os.path.getsize(newer) // 2)
    needed = {path for _i, path in uncovered_segments(directory, older_seq)}
    assert needed > scanned
    for path in needed & set(saved):
        with open(path, "wb") as handle:
            handle.write(saved[path])
    fallback = recover(directory, topology, k=k)
    assert fallback.stats.checkpoint_seq == older_seq
    assert len(fallback.stats.errors) == 1  # the skipped checkpoint
    assert "checkpoint" in fallback.stats.errors[0]
    assert fallback.stats.replayed_ops > recovered.stats.replayed_ops
    assert fallback.fingerprint() == live


class TestVerifyCheckpointAgainstPrefix:
    def _journal(self, directory):
        journal = MetadataJournal(directory, checkpoint_records=None)
        store = BlockStore(ClusterTopology(nodes_per_rack=2, num_racks=2))
        namespace = FileNamespace()
        journal.attach(block_store=store, namespace=namespace)
        namespace.create("/f")
        for node in range(3):
            block = store.create_block(100 + node)
            store.add_replica(block.block_id, node, is_primary=True)
        return journal, store

    def test_honest_checkpoint_passes(self, tmp_path):
        journal, store = self._journal(str(tmp_path))
        journal.checkpoint()
        store.create_block(999)
        journal.close()
        report = verify_journal(str(tmp_path))
        assert report.ok, report.summary()
        assert report.checkpoints == 1

    def test_checkpoint_claiming_an_unapplied_record_is_flagged(
        self, tmp_path
    ):
        """The hazard of snapshotting *after* the append: record S is in
        the log, its effect is not in the state, the file says S."""
        directory = str(tmp_path)
        journal, store = self._journal(directory)
        before = journal.current_state()
        store.create_block(999)  # journaled as S, then applied
        live = journal.current_fingerprint()
        write_checkpoint(directory, journal.last_seq, before)
        journal.close()

        recovered = recover(
            directory, ClusterTopology(nodes_per_rack=2, num_racks=2)
        )
        assert recovered.stats.errors == []
        assert recovered.fingerprint() != live  # silently lost S

        report = verify_journal(directory)
        assert not report.ok
        assert any(
            f"replay of records 1..{journal.last_seq}" in error
            for error in report.errors
        ), report.summary()


def test_full_crash_matrix_with_periodic_checkpoints(tmp_path):
    """Every seq x before/torn/after with a checkpoint every 32 records:
    each crashed run recovers its durable prefix from checkpoint + tail,
    and every checkpoint falls on the cadence, waiting for nothing."""
    seed = 101
    probe = run_crash_workload(str(tmp_path / "probe"), seed)
    probe.journal.close()
    shutil.rmtree(str(tmp_path / "probe"))
    points = [
        CrashPoint(seq=seq, phase=phase)
        for seq in range(1, probe.last_seq + 1)
        for phase in CRASH_PHASES
    ]
    report = run_crash_matrix(
        seed, str(tmp_path), checkpoint_records=32, points=points
    )
    assert len(report.cases) == 3 * probe.last_seq
    assert report.clean, [
        (case.point, case.recovery_errors, case.verify_errors)
        for case in report.cases if not case.clean
    ][:3]
    claimed = {
        seq
        for entry in tmp_path.iterdir()
        for seq, _path in list_checkpoints(str(entry))
    }
    assert len(claimed) >= probe.last_seq // 32
    assert all(seq % 32 == 0 for seq in claimed)
