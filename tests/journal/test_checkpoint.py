"""Checkpoints: CRC validation, newest-valid fallback, segment pruning."""

import json
import os

import pytest

from repro.cluster.block import BlockStore
from repro.cluster.topology import ClusterTopology
from repro.journal.checkpoint import (
    CheckpointError,
    list_checkpoints,
    load_checkpoint,
    load_latest_checkpoint,
    prune_segments,
    write_checkpoint,
)
from repro.journal.journal import MetadataJournal
from repro.journal.recovery import recover
from repro.journal.wal import JournalWriter, list_segments
from tests.journal.reference_codec import encode_line

STATE = {"blocks": [[0, 1024, "data", None]], "next_block_id": 1}


class TestRoundtrip:
    def test_write_then_load(self, tmp_path):
        path = write_checkpoint(str(tmp_path), 12, STATE, meta={"seed": 7})
        data = load_checkpoint(path)
        assert data.last_seq == 12
        assert data.state == STATE
        assert data.meta == {"seed": 7}

    def test_no_tmp_file_left_behind(self, tmp_path):
        write_checkpoint(str(tmp_path), 1, STATE)
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]

    def test_bad_crc_rejected(self, tmp_path):
        path = write_checkpoint(str(tmp_path), 3, STATE)
        with open(path, encoding="utf-8") as handle:
            blob = json.load(handle)
        blob["payload"]["last_seq"] = 4
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(blob, handle)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_unparseable_file_rejected(self, tmp_path):
        path = write_checkpoint(str(tmp_path), 3, STATE)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("not json")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


class TestLatest:
    def test_newest_valid_wins(self, tmp_path):
        write_checkpoint(str(tmp_path), 5, {"step": 5})
        write_checkpoint(str(tmp_path), 9, {"step": 9})
        latest, warnings = load_latest_checkpoint(str(tmp_path))
        assert latest.last_seq == 9
        assert warnings == []

    def test_corrupt_newest_falls_back_to_older(self, tmp_path):
        write_checkpoint(str(tmp_path), 5, {"step": 5})
        newest = write_checkpoint(str(tmp_path), 9, {"step": 9})
        with open(newest, "w", encoding="utf-8") as handle:
            handle.write("{}")
        latest, warnings = load_latest_checkpoint(str(tmp_path))
        assert latest.last_seq == 5
        assert warnings, "skipping a corrupt checkpoint must be reported"

    def test_empty_directory(self, tmp_path):
        latest, warnings = load_latest_checkpoint(str(tmp_path))
        assert latest is None
        assert warnings == []


class TestPrune:
    def _fill(self, directory, count, segment_records):
        writer = JournalWriter(directory, segment_records=segment_records)
        for seq in range(1, count + 1):
            writer.write(
                encode_line(seq, {"type": "t", "data": {}, "seq": seq})
            )
        writer.close()

    def test_only_fully_covered_segments_deleted(self, tmp_path):
        directory = str(tmp_path)
        self._fill(directory, 9, segment_records=3)  # segments: 1-3, 4-6, 7-9
        removed = prune_segments(directory, upto_seq=6)
        assert len(removed) == 2
        remaining = [index for index, _path in list_segments(directory)]
        assert len(remaining) == 1

    def test_partially_covered_segment_survives(self, tmp_path):
        directory = str(tmp_path)
        self._fill(directory, 9, segment_records=3)
        prune_segments(directory, upto_seq=5)  # mid-second-segment
        assert len(list_segments(directory)) == 2

    def test_keep_protects_the_active_segment(self, tmp_path):
        directory = str(tmp_path)
        self._fill(directory, 3, segment_records=3)
        active = list_segments(directory)[-1][1]
        removed = prune_segments(directory, upto_seq=3, keep=(active,))
        assert removed == []
        assert os.path.exists(active)

    def test_checkpoints_are_never_pruned(self, tmp_path):
        directory = str(tmp_path)
        self._fill(directory, 3, segment_records=3)
        write_checkpoint(directory, 3, STATE)
        prune_segments(directory, upto_seq=3)
        assert len(list_checkpoints(directory)) == 1


class TestCorruption:
    """The CRC covers the payload bytes as written; a damaged newest
    checkpoint is refused and recovery falls back to the older one."""

    def _journal_with_two_checkpoints(self, directory):
        journal = MetadataJournal(directory, checkpoint_records=None)
        store = BlockStore(ClusterTopology(nodes_per_rack=2, num_racks=2))
        journal.attach(block_store=store)
        for round_ in range(2):
            for index in range(3):
                block = store.create_block(100 + index)
                store.add_replica(block.block_id, (round_ + index) % 4)
            journal.checkpoint()
        store.create_block(999)
        live = journal.current_fingerprint()
        journal.close()
        older, newest = list_checkpoints(directory)
        return live, older, newest

    @staticmethod
    def _rewrite(path, change):
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(change(blob))

    @staticmethod
    def _one_payload_byte_changed(blob):
        at = blob.index(b'"next_block_id":') + len(b'"next_block_id":')
        digit = b"7" if blob[at:at + 1] != b"7" else b"8"
        return blob[:at] + digit + blob[at + 1:]

    @staticmethod
    def _cut_mid_payload(blob):
        return blob[:len(blob) // 2]

    @pytest.mark.parametrize(
        "damage", ["_one_payload_byte_changed", "_cut_mid_payload"]
    )
    def test_damage_is_refused_and_recovery_falls_back(
        self, tmp_path, damage
    ):
        directory = str(tmp_path)
        live, (older_seq, _), (newest_seq, newest) = (
            self._journal_with_two_checkpoints(directory)
        )
        self._rewrite(newest, getattr(self, damage))
        with pytest.raises(CheckpointError):
            load_checkpoint(newest)
        recovered = recover(directory, ClusterTopology(nodes_per_rack=2,
                                                       num_racks=2))
        assert older_seq < newest_seq
        assert recovered.stats.checkpoint_seq == older_seq
        assert recovered.fingerprint() == live
        assert any("checkpoint" in error for error in recovered.stats.errors)

    def test_equal_json_in_another_layout_is_refused(self, tmp_path):
        path = write_checkpoint(str(tmp_path), 3, STATE)
        with open(path, encoding="utf-8") as handle:
            blob = json.load(handle)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(blob, handle, indent=1)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
