"""Differential suite for the packed-word GF(2^8) kernel.

``matrix.PackedMatrix`` + ``matrix.Accumulator`` are the one production
multiply-accumulate; everything here pins them byte for byte against the
per-coefficient oracle ``apply_to_shards_scalar`` — across every lane
grouping (r = 1..12), every column count a (14, 10) code can produce, the
lengths that straddle word and piece boundaries, unit rows mixed with dense
ones, every bytes-like input type, and accumulator reuse.
"""

from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure import matrix as gfm
from repro.erasure.codec import CodeParams, make_codec
from repro.erasure.galois import GF256
from repro.erasure.lrc import LocalReconstructionCodec, LRCParams
from repro.erasure.stream import (
    ChunkReader,
    StreamingDataPlane,
    encode_blocks,
    stream_decode,
    stream_encode,
)
from repro.sim.metrics import measure_ops
from tests.erasure.reference_gf import apply_to_shards_scalar

#: Lengths around the word sizes: empty, one byte, odd, not a multiple of 8.
LENGTHS = (0, 1, 7, 13, 64, 100, 257)

#: How the dense rows of an r-row matrix split into lanes (widest first).
LANE_GROUPS = {
    1: [1], 2: [2], 3: [2, 1], 4: [4], 5: [4, 1], 6: [4, 2], 7: [4, 2, 1],
    8: [8], 9: [8, 1], 10: [8, 2], 11: [8, 2, 1], 12: [8, 4],
}


def random_coeffs(rng, rows, cols):
    """A coefficient matrix with dense rows, unit rows (the copy path),
    all-zero rows and an all-zero column mixed in at random."""
    coeffs = rng.integers(0, 256, size=(rows, cols), dtype=np.uint8)
    for row in range(rows):
        kind = rng.integers(0, 5)
        if kind == 0:  # unit row
            coeffs[row] = 0
            coeffs[row, rng.integers(0, cols)] = 1
        elif kind == 1:  # zero row
            coeffs[row] = 0
    if rng.integers(0, 3) == 0:
        coeffs[:, rng.integers(0, cols)] = 0
    return coeffs


def as_source(rng, data):
    """The chunk as one of the bytes-like types a caller may hand in."""
    raw = data.tobytes()
    kind = rng.integers(0, 4)
    if kind == 0:
        return raw  # read-only bytes
    if kind == 1:
        return bytearray(raw)
    if kind == 2:
        return memoryview(raw)
    return data  # uint8 ndarray


class TestLaneGrouping:
    @pytest.mark.parametrize("rows", sorted(LANE_GROUPS))
    def test_dense_rows_split_widest_first_without_padding(self, rows):
        coeffs = np.full((rows, 3), 7, dtype=np.uint8)
        packed = gfm.PackedMatrix(coeffs)
        assert packed.units == ()
        assert [len(r) for r, _ in packed.groups] == LANE_GROUPS[rows]
        assert [t.dtype.itemsize for _, t in packed.groups] == LANE_GROUPS[rows]
        covered = [row for group, _ in packed.groups for row in group]
        assert covered == list(range(rows))

    def test_table_lanes_hold_the_products_bytewise(self):
        # Read back through a uint8 view — the layout the kernel relies on,
        # whatever the host byte order.
        coeffs = np.array([[3, 0], [29, 1], [255, 2], [1, 1]], dtype=np.uint8)
        packed = gfm.PackedMatrix(coeffs)
        ((rows, table),) = packed.groups
        lanes = table.view(np.uint8).reshape(2, 256, 4)
        for lane, row in enumerate(rows):
            for column in range(2):
                for byte in (0, 1, 2, 77, 255):
                    assert lanes[column, byte, lane] == GF256.mul(
                        int(coeffs[row, column]), byte
                    )

    def test_unit_rows_are_listed_not_packed(self):
        coeffs = np.array(
            [[0, 1, 0], [5, 6, 7], [1, 0, 0], [0, 0, 2], [0, 0, 0]],
            dtype=np.uint8,
        )
        packed = gfm.PackedMatrix(coeffs)
        assert packed.units == ((0, 1), (2, 0))
        # [0, 0, 2] has one coefficient but it is not 1; zero rows are dense.
        assert [rows for rows, _ in packed.groups] == [(1, 3), (4,)]

    def test_matrix_is_copied_and_frozen(self):
        coeffs = np.ones((2, 2), dtype=np.uint8)
        packed = gfm.PackedMatrix(coeffs)
        coeffs[0, 0] = 9
        assert packed.coeffs[0, 0] == 1
        with pytest.raises(ValueError):
            packed.coeffs[0, 0] = 3

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            gfm.PackedMatrix(np.zeros(4, dtype=np.uint8))
        with pytest.raises(ValueError):
            gfm.PackedMatrix(np.zeros((1, 257), dtype=np.uint8))


class TestKernelMatchesScalarOracle:
    @given(seed=st.integers(0, 2**20))
    @settings(max_examples=120, deadline=None)
    def test_property_apply_to_shards(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = int(rng.integers(1, 13)), int(rng.integers(1, 15))
        length = int(rng.choice(LENGTHS))
        coeffs = random_coeffs(rng, rows, cols)
        shards = rng.integers(0, 256, size=(cols, length), dtype=np.uint8)
        expected = apply_to_shards_scalar(coeffs, shards)
        assert gfm.apply_to_shards(coeffs, shards).tobytes() == expected.tobytes()
        packed = gfm.PackedMatrix(coeffs)
        assert gfm.apply_to_shards(packed, shards).tobytes() == expected.tobytes()

    @given(seed=st.integers(0, 2**20))
    @settings(max_examples=120, deadline=None)
    def test_property_chunked_folds_with_offsets_and_reuse(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = int(rng.integers(1, 13)), int(rng.integers(1, 15))
        length = int(rng.choice(LENGTHS))
        chunk = int(rng.integers(1, 40))
        coeffs = random_coeffs(rng, rows, cols)
        accumulator = gfm.Accumulator(gfm.PackedMatrix(coeffs), length)
        for __ in range(2):  # second round: reuse after reset
            accumulator.reset()
            shards = rng.integers(0, 256, size=(cols, length), dtype=np.uint8)
            for column in rng.permutation(cols):
                # Nonzero offsets, and a short final chunk unless aligned.
                for offset in range(0, length, chunk):
                    piece = shards[column, offset : offset + chunk]
                    accumulator.fold(
                        int(column), as_source(rng, piece), offset
                    )
            expected = apply_to_shards_scalar(coeffs, shards)
            got = accumulator.rows()
            assert len(got) == rows
            assert [row.tobytes() for row in got] == [
                row.tobytes() for row in expected
            ]

    @given(seed=st.integers(0, 2**20))
    @settings(max_examples=40, deadline=None)
    def test_property_several_columns_in_one_fold(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = int(rng.integers(1, 13)), int(rng.integers(2, 15))
        length = int(rng.choice(LENGTHS))
        coeffs = random_coeffs(rng, rows, cols)
        shards = rng.integers(0, 256, size=(cols, length), dtype=np.uint8)
        split = int(rng.integers(1, cols))
        accumulator = gfm.Accumulator(gfm.PackedMatrix(coeffs), length)
        accumulator.fold(split, shards[split:])
        accumulator.fold(0, shards[:split])
        expected = apply_to_shards_scalar(coeffs, shards)
        assert [row.tobytes() for row in accumulator.rows()] == [
            row.tobytes() for row in expected
        ]

    @pytest.mark.parametrize("cols", [1, 3, 10])
    def test_lengths_beyond_one_gather_piece(self, cols):
        rng = np.random.default_rng(cols)
        length = gfm.PIECE_BYTES + 4099  # streaming: two pieces per fold
        coeffs = random_coeffs(rng, 5, cols)
        shards = rng.integers(0, 256, size=(cols, length), dtype=np.uint8)
        expected = apply_to_shards_scalar(coeffs, shards)
        assert np.array_equal(gfm.apply_to_shards(coeffs, shards), expected)
        accumulator = gfm.Accumulator(gfm.PackedMatrix(coeffs), length)
        for column in range(cols):
            accumulator.fold(column, shards[column].tobytes())
        assert np.array_equal(np.stack(accumulator.rows()), expected)

    def test_fold_is_an_xor_accumulate_even_on_unit_rows(self):
        coeffs = np.array([[1, 0], [3, 4]], dtype=np.uint8)
        accumulator = gfm.Accumulator(gfm.PackedMatrix(coeffs), 4)
        accumulator.fold(0, b"\x01\x02\x03\x04")
        accumulator.fold(0, b"\x01\x02\x03\x04")
        assert [row.tobytes() for row in accumulator.rows()] == [bytes(4)] * 2

    def test_matmul_and_matvec_run_the_same_kernel(self):
        rng = np.random.default_rng(5)
        a = random_coeffs(rng, 6, 5)
        b = rng.integers(0, 256, size=(5, 7), dtype=np.uint8)
        assert np.array_equal(gfm.matmul(a, b), apply_to_shards_scalar(a, b))
        with measure_ops() as measured:
            gfm.matvec(a, [1, 2, 3, 4, 5])
        assert measured.get("gf.kernel_calls") > 0


class TestAccumulatorChecks:
    def setup_method(self):
        self.accumulator = gfm.Accumulator(
            gfm.PackedMatrix(np.ones((2, 3), dtype=np.uint8)), 8
        )

    def test_column_range(self):
        with pytest.raises(ValueError, match="outside"):
            self.accumulator.fold(3, b"ab")
        with pytest.raises(ValueError, match="outside"):
            self.accumulator.fold(-1, b"ab")
        with pytest.raises(ValueError, match="outside"):
            self.accumulator.fold(2, np.zeros((2, 4), dtype=np.uint8))

    def test_overrun_and_negative_offset(self):
        with pytest.raises(ValueError, match="overruns"):
            self.accumulator.fold(0, bytes(9))
        with pytest.raises(ValueError, match="overruns"):
            self.accumulator.fold(0, bytes(4), offset=5)
        with pytest.raises(ValueError, match="overruns"):
            self.accumulator.fold(0, bytes(4), offset=-1)

    def test_wrong_dtype_or_rank(self):
        with pytest.raises(ValueError, match="uint8"):
            self.accumulator.fold(0, np.zeros(4, dtype=np.int64))
        with pytest.raises(ValueError, match="rank"):
            self.accumulator.fold(0, np.zeros((1, 1, 4), dtype=np.uint8))

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            gfm.Accumulator(self.accumulator.matrix, -1)

    def test_empty_chunk_is_a_no_op(self):
        with measure_ops() as measured:
            self.accumulator.fold(1, b"")
        assert measured.get("gf.kernel_calls") == 0
        assert all(not row.any() for row in self.accumulator.rows())


class TestTablesAreCachedWithTheirMatrices:
    def test_parity_tables_built_once_per_codec(self):
        codec = make_codec(14, 10)
        assert codec.packed_parity is codec.packed_parity
        assert np.array_equal(codec.packed_parity.coeffs, codec.parity_rows)

    def test_decode_cache_holds_compiled_matrices(self):
        codec = make_codec(9, 6)
        survivors = [0, 2, 4, 6, 7, 8]
        chosen, first = codec.decode_plan(survivors)
        _, second = codec.decode_plan(survivors)
        assert first is second and isinstance(first, gfm.PackedMatrix)
        # Surviving data shards 0, 2, 4 are unit rows: copied, not gathered.
        assert [row for row, _ in first.units] == [0, 2, 4]


class TestSizedViewsAndStridedSources:
    def test_encode_blocks_sizes_multibyte_views_in_bytes(self):
        codec = make_codec(6, 4)
        arrays = [array("H", range(i, i + 100)) for i in range(4)]
        views = [memoryview(a) for a in arrays]
        blocks = [a.tobytes() for a in arrays]
        assert len(views[0]) == 100 and views[0].nbytes == 200
        assert encode_blocks(views, codec) == codec.encode(blocks)
        assert (
            stream_encode(views[0], n=6, k=4, chunk_size=16).payload()
            == blocks[0]
        )

    def test_strided_memoryview_is_a_named_value_error(self):
        strided = memoryview(bytes(range(100)))[::2]
        with pytest.raises(ValueError, match="contiguous"):
            list(ChunkReader(strided, 8))
        with pytest.raises(ValueError, match="contiguous"):
            stream_encode(strided, n=6, k=4, chunk_size=8)
        wide = memoryview(array("H", range(100)))[::2]
        with pytest.raises(ValueError, match="contiguous"):
            encode_blocks([wide] * 4, make_codec(6, 4), length=200)


class TestVerifyRejectsWrongLengthParity:
    def test_truncated_zero_tail_fails(self):
        codec = make_codec(6, 4)
        # All-zero data encodes to all-zero parity: the lost tail is zeros.
        blocks = dict(enumerate([bytes(16)] * 4 + codec.encode([bytes(16)] * 4)))
        assert codec.verify(blocks)
        blocks[4] = blocks[4][:10]
        assert not codec.verify(blocks)
        blocks[4] = bytes(17)
        assert not codec.verify(blocks)

    def test_truncated_nonzero_parity_fails(self):
        rng = np.random.default_rng(3)
        codec = make_codec(6, 4)
        data = [rng.integers(0, 256, 16, dtype=np.uint8).tobytes() for _ in range(4)]
        blocks = dict(enumerate(data + codec.encode(data)))
        assert codec.verify(blocks)
        blocks[5] = blocks[5][:-1]
        assert not codec.verify(blocks)

    def test_data_plane_verify_stripe_inherits_the_fix(self):
        class Stripe:
            stripe_id = 0
            block_ids = [0, 1, 2, 3]
            parity_block_ids = [4, 5]

        plane = StreamingDataPlane(CodeParams(6, 4))
        for block_id in Stripe.block_ids:
            plane.put(block_id, bytes(32))
        parity = plane.codec.encode([bytes(32)] * 4)
        for block_id, payload in zip(Stripe.parity_block_ids, parity):
            plane.put(block_id, payload)
        assert plane.verify_stripe(Stripe)
        plane.put(5, parity[1][:20])
        assert not plane.verify_stripe(Stripe)


def _codecs():
    return [
        make_codec(9, 6),
        make_codec(9, 6, "cauchy-rs"),
        LocalReconstructionCodec(LRCParams(6, 2, 2)),
    ]


class TestReconstructAppliesOneRow:
    @pytest.mark.parametrize("codec", _codecs(), ids=lambda c: c.scheme)
    def test_reconstruct_equals_decode_and_encode(self, codec):
        rng = np.random.default_rng(11)
        n, k = codec.params.n, codec.params.k
        data = [rng.integers(0, 256, 48, dtype=np.uint8).tobytes() for _ in range(k)]
        stripe = data + codec.encode(data)
        for target in range(n):
            for also_lost in (None, (target + 1) % n):
                available = {
                    i: b for i, b in enumerate(stripe)
                    if i not in (target, also_lost)
                }
                rebuilt = codec.reconstruct(target, available)
                assert rebuilt == stripe[target]
                if target < k:
                    assert rebuilt == codec.decode(available)[target]
                assert codec.repair(target, available)[0] == rebuilt

    @pytest.mark.parametrize("scheme", ["reed-solomon", "cauchy-rs"])
    def test_one_pass_of_k_row_products(self, scheme):
        n, k, size = 9, 6, 64
        codec = make_codec(n, k, scheme)
        data = [bytes([i + 1]) * size for i in range(k)]
        stripe = data + codec.encode(data)
        available = {i: b for i, b in enumerate(stripe) if i != n - 1}
        codec.reconstruct(n - 1, available)  # warm the decode-matrix LRU
        with measure_ops() as measured:
            codec.reconstruct(n - 1, available)
        # The (1, k) repair row over the survivors, plus the k x k row
        # product that derives it — not a k x k decode and a re-encode.
        assert measured.get("gf.symbol_mults") == k * size + k * k

    def test_out_of_range_target_rejected(self):
        codec = make_codec(6, 4)
        with pytest.raises(ValueError, match="outside"):
            codec.reconstruct(6, {i: b"x" for i in range(4)})


class TestStreamDecodeStripsInOneCopy:
    def test_padding_stripped_and_bytes_returned(self):
        payload = bytes(range(256)) * 3 + b"tail"
        encoded = stream_encode(payload, n=6, k=4, chunk_size=64)
        decoded = stream_decode(encoded.available(exclude=[0, 5]), encoded.meta)
        assert type(decoded) is bytes and decoded == payload
