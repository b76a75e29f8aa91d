"""What ``MetadataJournal.append`` promises, checked from the outside.

* Every record is on disk when ``append`` returns: the newest segment's
  last line decodes to that record's seq, across rotations too, and with
  ``fsync=True`` each record costs exactly one ``os.fsync``.
* No record instance is built: journaled runs write the same bytes with
  every record class's ``__init__`` made to raise.
* A journal that is never closed (as in the crash drills) still releases
  its segment's descriptor once it is collected.
"""

import gc
import hashlib
import os
import warnings

import pytest

from repro.cluster.block import BlockStore
from repro.cluster.topology import ClusterTopology
from repro.journal.journal import MetadataJournal
from repro.journal.records import RECORD_TYPES
from repro.journal.wal import decode_line, list_segments
from repro.recovery.storm import run_storm
from tests.journal.test_write_ahead import drive_every_record_type


def _journaled_store(directory, **kwargs):
    journal = MetadataJournal(directory, checkpoint_records=None, **kwargs)
    store = BlockStore(ClusterTopology(nodes_per_rack=2, num_racks=2))
    journal.attach(block_store=store)
    return journal, store


def _changes(store, count):
    """``count`` store mutations, one record each; yields after each."""
    for index in range(count):
        if index % 2 == 0:
            store.create_block(100)
        else:
            store.add_replica(index // 2, index % 4)
        yield


def _last_line_seq(directory):
    with open(list_segments(directory)[-1][1], "rb") as handle:
        return decode_line(handle.read().splitlines()[-1])["seq"]


class TestDurableOnReturn:
    def test_last_line_is_the_record_just_appended(self, tmp_path):
        directory = str(tmp_path)
        journal, store = _journaled_store(directory, segment_records=3)
        seen = []
        for __ in _changes(store, 8):
            seen.append(_last_line_seq(directory))
        assert seen == list(range(1, 9))
        assert len(list_segments(directory)) == 3  # 3 + 3 + 2: two rotations
        journal.close()

    def test_fsync_once_per_record(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd)
        )
        journal, store = _journaled_store(
            str(tmp_path), segment_records=3, fsync=True
        )
        counts = []
        for __ in _changes(store, 7):
            counts.append(len(synced))
        assert counts == list(range(1, 8))
        journal.close()

    def test_no_fsync_by_default(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr(os, "fsync", synced.append)
        journal, store = _journaled_store(str(tmp_path))
        for __ in _changes(store, 4):
            pass
        journal.close()
        assert synced == []


def _tree_digest(directory):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        digest.update(name.encode())
        with open(os.path.join(directory, name), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def _journaled_storm(directory):
    journal = MetadataJournal(directory, checkpoint_records=256)
    run_storm("rack_loss", seed=3, journal=journal, num_stripes=12)
    journal.close()


def _crash_workload_with_tail(directory):
    drive_every_record_type(directory, seed=0).journal.close()


@pytest.mark.parametrize(
    "workload", [_journaled_storm, _crash_workload_with_tail],
    ids=["run_storm", "drive_every_record_type"],
)
def test_appends_build_no_record_instance(tmp_path, monkeypatch, workload):
    reference = str(tmp_path / "reference")
    workload(reference)

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} instance built")

    for record_class in RECORD_TYPES.values():
        monkeypatch.setattr(record_class, "__init__", refuse)
    patched = str(tmp_path / "patched")
    workload(patched)
    assert _tree_digest(patched) == _tree_digest(reference)


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)
def test_unclosed_journal_releases_its_descriptor(tmp_path):
    def open_descriptors():
        return len(os.listdir("/proc/self/fd"))

    gc.collect()
    before = open_descriptors()
    journal, store = _journaled_store(str(tmp_path))
    store.create_block(100)  # opens the first segment
    assert open_descriptors() == before + 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResourceWarning)
        del journal, store  # the journal and its stores form a cycle
        gc.collect()
    assert open_descriptors() == before
