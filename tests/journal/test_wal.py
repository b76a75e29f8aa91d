"""Segmented write-ahead log: line format, rotation, torn tails."""

import os

import pytest

from repro.journal.wal import (
    JournalFormatError,
    JournalWriter,
    decode_line,
    list_segments,
    scan_journal,
    segment_path,
)
from tests.journal.reference_codec import encode_line


def _envelope(seq, tag="add_block", **data):
    return {"type": tag, "data": data, "seq": seq}


def _append_records(directory, count, segment_records=1024):
    writer = JournalWriter(directory, segment_records=segment_records)
    for seq in range(1, count + 1):
        writer.write(encode_line(seq, _envelope(seq, block_id=seq)))
    writer.close()
    return writer


class TestLineFormat:
    def test_roundtrip(self):
        line = encode_line(7, {"type": "add_block", "data": {"block_id": 3}})
        payload = decode_line(line)
        assert payload["seq"] == 7
        assert payload["type"] == "add_block"
        assert payload["data"] == {"block_id": 3}

    def test_crc_mismatch_rejected(self):
        line = encode_line(1, {"type": "add_block", "data": {}})
        body, _tab, crc = line.rpartition(b"\t")
        bad = body.replace(b"add_block", b"sub_block") + b"\t" + crc
        with pytest.raises(JournalFormatError, match="CRC mismatch"):
            decode_line(bad)

    def test_missing_crc_field_rejected(self):
        with pytest.raises(JournalFormatError, match="no CRC field"):
            decode_line(b'{"seq": 1}')

    def test_undecodable_json_rejected(self):
        import zlib

        text = "{not json"
        crc = zlib.crc32(text.encode()) & 0xFFFFFFFF
        with pytest.raises(JournalFormatError, match="undecodable"):
            decode_line(b"%s\t%08x" % (text.encode(), crc))

    def test_canonical_encoding_is_key_order_independent(self):
        a = encode_line(1, {"type": "t", "data": {"a": 1, "b": 2}})
        b = encode_line(1, {"data": {"b": 2, "a": 1}, "type": "t"})
        assert a == b


class TestWriterAndScan:
    def test_scan_returns_records_in_order(self, tmp_path):
        directory = str(tmp_path)
        _append_records(directory, 5)
        scan = scan_journal(directory)
        assert [env["seq"] for env in scan.envelopes] == [1, 2, 3, 4, 5]
        assert scan.last_seq == 5
        assert scan.errors == []
        assert scan.torn_tail is None

    def test_rotation_splits_segments(self, tmp_path):
        directory = str(tmp_path)
        _append_records(directory, 7, segment_records=3)
        indices = [index for index, _path in list_segments(directory)]
        assert len(indices) == 3  # 3 + 3 + 1 records
        scan = scan_journal(directory)
        assert scan.last_seq == 7
        assert len(scan.segments) == 3

    def test_resume_opens_a_new_segment(self, tmp_path):
        directory = str(tmp_path)
        _append_records(directory, 2)
        writer = JournalWriter(directory)
        writer.write(encode_line(3, _envelope(3)))
        writer.close()
        assert len(list_segments(directory)) == 2
        assert scan_journal(directory).last_seq == 3

    def test_empty_directory_scans_clean(self, tmp_path):
        scan = scan_journal(str(tmp_path))
        assert scan.envelopes == []
        assert scan.last_seq == 0
        assert scan.errors == []


class TestTornAndCorrupt:
    def test_torn_tail_is_tolerated(self, tmp_path):
        directory = str(tmp_path)
        writer = JournalWriter(directory)
        writer.write(encode_line(1, _envelope(1)))
        writer.write_torn(encode_line(2, _envelope(2)))
        writer.close()
        scan = scan_journal(directory)
        assert [env["seq"] for env in scan.envelopes] == [1]
        assert scan.torn_tail is not None
        assert scan.errors == []

    def test_intact_final_record_without_newline_accepted(self, tmp_path):
        directory = str(tmp_path)
        _append_records(directory, 2)
        path = list_segments(directory)[-1][1]
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data.rstrip(b"\n"))
        scan = scan_journal(directory)
        assert scan.last_seq == 2
        assert scan.errors == []

    def test_corrupt_record_mid_log_is_an_error(self, tmp_path):
        directory = str(tmp_path)
        _append_records(directory, 6, segment_records=3)
        first_segment = list_segments(directory)[0][1]
        with open(first_segment, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        lines[1] = lines[1].replace('"seq"', '"sXq"', 1)
        with open(first_segment, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        scan = scan_journal(directory)
        assert scan.errors, "mid-log corruption must be reported, not tolerated"

    def test_non_monotonic_seq_is_an_error(self, tmp_path):
        directory = str(tmp_path)
        writer = JournalWriter(directory)
        writer.write(encode_line(1, _envelope(1)))
        writer.write(encode_line(1, _envelope(1)))
        writer.close()
        scan = scan_journal(directory)
        assert scan.errors

    def test_segment_path_layout(self, tmp_path):
        path = segment_path(str(tmp_path), 4)
        assert os.path.basename(path) == "segment-00000004.wal"
