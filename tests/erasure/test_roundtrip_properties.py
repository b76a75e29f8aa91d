"""Seeded-random roundtrip properties over codes, payloads, and erasure
patterns, plus the batched-vs-scalar GF kernel differential oracle.

These are the safety net under the fused-kernel and cached-matrix
optimizations: every property is phrased against either the mathematical
roundtrip (decode(encode(x)) == x) or the retained scalar reference
implementation (``apply_to_shards_scalar``, ``GF256.mul``)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure import matrix as gfm
from repro.erasure.codec import make_codec
from repro.erasure.galois import GF256
from repro.erasure.lrc import LocalReconstructionCodec, LRCParams
from tests.erasure.reference_gf import apply_to_shards_scalar, mul_array


def _random_blocks(r, count, size):
    return [bytes(r.randrange(256) for __ in range(size)) for __ in range(count)]


class TestRandomizedRoundtrips:
    @pytest.mark.parametrize("scheme", ["reed-solomon", "cauchy-rs"])
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_property_decode_from_any_k_survivors(self, scheme, seed):
        r = random.Random(seed)
        k = r.randrange(2, 11)
        n = r.randrange(k + 1, k + 7)
        size = r.randrange(1, 130)
        codec = make_codec(n, k, scheme)
        data = _random_blocks(r, k, size)
        stripe = data + codec.encode(data)
        # Erase up to m = n - k blocks, decode from k of the survivors.
        lost = set(r.sample(range(n), r.randrange(1, n - k + 1)))
        survivors = [i for i in range(n) if i not in lost]
        chosen = r.sample(survivors, k)
        decoded = codec.decode({i: stripe[i] for i in chosen})
        assert decoded == data

    @pytest.mark.parametrize("scheme", ["reed-solomon", "cauchy-rs"])
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_property_reconstruct_any_single_loss(self, scheme, seed):
        r = random.Random(seed)
        k = r.randrange(2, 9)
        n = r.randrange(k + 1, k + 5)
        codec = make_codec(n, k, scheme)
        data = _random_blocks(r, k, r.randrange(1, 65))
        stripe = data + codec.encode(data)
        lost = r.randrange(n)
        available = {i: stripe[i] for i in range(n) if i != lost}
        assert codec.reconstruct(lost, available) == stripe[lost]

    def test_uneven_payloads_strip_padding(self):
        r = random.Random(11)
        codec = make_codec(9, 6)
        data = [bytes(r.randrange(256) for __ in range(length))
                for length in (3, 17, 1, 9, 17, 5)]
        stripe = [b.ljust(17, b"\0") for b in data] + codec.encode(data)
        decoded = codec.decode(
            {i: stripe[i] for i in range(3, 9)},
            original_lengths=[len(b) for b in data],
        )
        assert decoded == data


class TestLRCRoundtrips:
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_property_single_loss_repairs_locally(self, seed):
        r = random.Random(seed)
        group = r.randrange(2, 5)
        groups = r.randrange(1, 4)
        params = LRCParams(group * groups, groups, r.randrange(1, 4))
        codec = LocalReconstructionCodec(params)
        data = _random_blocks(r, params.k, r.randrange(1, 65))
        stripe = data + codec.encode(data)
        lost = r.randrange(params.n)
        available = {i: stripe[i] for i in range(params.n) if i != lost}
        rebuilt, read = codec.repair(lost, available)
        assert rebuilt == stripe[lost]
        if lost < params.k + params.local_groups:  # data or local parity
            assert len(read) == params.group_size  # the LRC selling point

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_property_decode_correct_whenever_it_succeeds(self, seed):
        r = random.Random(seed)
        params = LRCParams(12, 2, 2)
        codec = LocalReconstructionCodec(params)
        data = _random_blocks(r, params.k, 32)
        stripe = data + codec.encode(data)
        lost = set(r.sample(range(params.n), r.randrange(1, 4)))
        available = {i: stripe[i] for i in range(params.n) if i not in lost}
        try:
            decoded = codec.decode(available)
        except ValueError:
            return  # pattern unrecoverable for this (non-MDS) LRC: allowed
        assert decoded == data


class TestBatchedVsScalarKernels:
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_property_fused_apply_matches_scalar(self, seed):
        r = np.random.default_rng(seed)
        rows, cols = int(r.integers(1, 7)), int(r.integers(1, 7))
        length = int(r.integers(1, 200))
        coeffs = r.integers(0, 256, size=(rows, cols), dtype=np.uint8)
        shards = r.integers(0, 256, size=(cols, length), dtype=np.uint8)
        fused = gfm.apply_to_shards(coeffs, shards)
        scalar = apply_to_shards_scalar(coeffs, shards)
        assert fused.tobytes() == scalar.tobytes()

    def test_mul_array_matches_table_row(self):
        table = GF256.mul_table()
        data = np.arange(256, dtype=np.uint8)
        for scalar in (0, 1, 2, 29, 255):
            out = mul_array(scalar, data)
            assert np.array_equal(out, table[scalar, data])

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_property_encode_identical_across_codec_instances(self, seed):
        # The lru-cached generator matrices are shared across instances;
        # encoding must not depend on who built the matrix first.
        r = random.Random(seed)
        data = _random_blocks(r, 6, 48)
        first = make_codec(10, 6).encode(data)
        second = make_codec(10, 6).encode(data)
        assert first == second

    def test_cached_matrices_are_write_protected(self):
        codec = make_codec(9, 6)
        with pytest.raises(ValueError):
            codec._generator[0, 0] = 1
