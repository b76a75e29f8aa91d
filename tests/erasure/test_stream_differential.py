"""Differential suite for the streaming data plane.

Every streamed result is pinned against the one retained reference — the
whole-stripe per-coefficient ``apply_to_shards_scalar`` over the zero-padded
stripe matrix, which shares no chunking or offset logic with the streaming
code — across random codes (RS/Cauchy/LRC), random chunk sizes, and payload
lengths that straddle every chunk/stripe boundary.
"""

import io
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure.codec import make_codec, zero_pad
from repro.erasure.lrc import LocalReconstructionCodec, LRCParams
from repro.erasure.stream import (
    ChunkReader,
    encode_blocks,
    stream_decode,
    stream_encode,
    stream_repair,
)
from tests.erasure.reference_gf import apply_to_shards_scalar


def oracle_shards(payload, meta, codec):
    """Whole-stripe scalar-path encoding of the zero-padded payload."""
    cs, k = meta.chunk_size, meta.k
    chunks = [
        zero_pad(payload[i : i + cs], cs) for i in range(0, len(payload), cs)
    ]
    while len(chunks) % k:
        chunks.append(b"\0" * cs)
    shards = [[] for __ in range(meta.n)]
    for s in range(len(chunks) // k):
        stripe = chunks[s * k : (s + 1) * k]
        stacked = np.stack([np.frombuffer(c, np.uint8) for c in stripe])
        parity = apply_to_shards_scalar(codec.parity_rows, stacked)
        for i in range(k):
            shards[i].append(stripe[i])
        for j in range(meta.n - k):
            shards[k + j].append(parity[j].tobytes())
    return tuple(tuple(chunks) for chunks in shards)


def random_code(r):
    """A random (scheme, n, k, lrc) quadruple covering all three families."""
    family = r.choice(["reed-solomon", "cauchy-rs", "lrc"])
    if family == "lrc":
        groups = r.choice([1, 2])
        k = groups * r.randrange(1, 4)
        return "lrc", None, None, (k, groups, r.randrange(1, 3))
    k = r.randrange(1, 6)
    return family, k + r.randrange(1, 4), k, None


#: Lengths straddling the interesting boundaries for a given chunk size
#: and k: empty, single byte, chunk-1/chunk/chunk+1, stripe-aligned, and
#: non-aligned tails.
def boundary_lengths(chunk_size, k):
    stripe = chunk_size * k
    return sorted(
        {
            0,
            1,
            chunk_size - 1,
            chunk_size,
            chunk_size + 1,
            stripe - 1,
            stripe,
            stripe + 1,
            2 * stripe + chunk_size // 2 + 1,
        }
    )


class TestStreamingVsWholeStripeOracle:
    @given(seed=st.integers(0, 2**20))
    @settings(max_examples=40, deadline=None)
    def test_property_streaming_matches_scalar_whole_stripe(self, seed):
        r = random.Random(seed)
        scheme, n, k, lrc = random_code(r)
        chunk_size = r.randrange(1, 33)
        length = r.choice(
            boundary_lengths(chunk_size, k if k else lrc[0])
            + [r.randrange(0, 200)]
        )
        payload = r.randbytes(length)
        encoded = stream_encode(
            payload, scheme=scheme, n=n, k=k, lrc=lrc, chunk_size=chunk_size
        )
        expected = oracle_shards(payload, encoded.meta, encoded.meta.codec())
        assert encoded.shards == expected
        assert encoded.payload() == payload

    @given(seed=st.integers(0, 2**20))
    @settings(max_examples=25, deadline=None)
    def test_property_numpy_backend_identical_to_scalar(self, seed):
        r = random.Random(seed)
        scheme, n, k, lrc = random_code(r)
        chunk_size = r.randrange(1, 25)
        payload = r.randbytes(r.randrange(0, 160))
        encoded = stream_encode(
            payload, scheme=scheme, n=n, k=k, lrc=lrc, chunk_size=chunk_size
        )
        meta = encoded.meta
        assert encoded.shards == oracle_shards(payload, meta, meta.codec())
        # Decode returns the payload, repair the reference's shard.
        lost = sorted(r.sample(range(meta.n), meta.num_parity))
        survivors = encoded.available(exclude=lost)
        try:
            decoded = stream_decode(survivors, meta)
        except ValueError:
            assert scheme == "lrc"  # non-MDS pattern: only an LRC may refuse
            return
        assert decoded == payload
        for target in lost:
            assert stream_repair(target, survivors, meta) == (
                encoded.shards[target]
            )


class TestBoundaryLengths:
    @pytest.mark.parametrize("scheme,n,k,lrc", [
        ("reed-solomon", 6, 4, None),
        ("cauchy-rs", 5, 3, None),
        ("lrc", None, None, (4, 2, 2)),
    ])
    def test_every_boundary_length(self, scheme, n, k, lrc):
        r = random.Random(1234)
        chunk_size = 16
        kk = k if k is not None else lrc[0]
        for length in boundary_lengths(chunk_size, kk):
            payload = r.randbytes(length)
            encoded = stream_encode(
                payload, scheme=scheme, n=n, k=k, lrc=lrc,
                chunk_size=chunk_size,
            )
            expected = oracle_shards(
                payload, encoded.meta, encoded.meta.codec()
            )
            assert encoded.shards == expected, length
            assert encoded.meta.length == length
            assert encoded.payload() == payload

    def test_empty_source_has_zero_stripes(self):
        encoded = stream_encode(b"", n=6, k=4, chunk_size=64)
        assert encoded.meta.num_stripes == 0
        assert encoded.shards == tuple(() for __ in range(6))
        assert stream_decode(encoded.available(), encoded.meta) == b""

    def test_exactly_one_chunk_is_unpadded(self):
        payload = bytes(range(64))
        encoded = stream_encode(payload, n=6, k=4, chunk_size=64)
        assert encoded.meta.num_stripes == 1
        assert encoded.meta.trailer.padding == 0
        assert encoded.shards[0] == (payload,)
        # The other data shards are virtual zero chunks.
        assert encoded.shards[1] == (b"\0" * 64,)


class TestBlockViewDifferential:
    @given(seed=st.integers(0, 2**18))
    @settings(max_examples=25, deadline=None)
    def test_property_block_streaming_matches_batch_encode(self, seed):
        r = random.Random(seed)
        k = r.randrange(1, 6)
        n = k + r.randrange(1, 4)
        codec = make_codec(n, k, r.choice(["reed-solomon", "cauchy-rs"]))
        length = r.randrange(0, 120)
        blocks = [r.randbytes(r.randrange(0, length + 1)) for __ in range(k)]
        chunk_size = r.randrange(1, 40)
        streamed = encode_blocks(
            blocks, codec, chunk_size=chunk_size, length=length
        )
        assert streamed == codec.encode(blocks, length=length)

    def test_lrc_block_streaming(self):
        codec = LocalReconstructionCodec(LRCParams(4, 2, 2))
        r = random.Random(5)
        blocks = [r.randbytes(33) for __ in range(4)]
        streamed = encode_blocks(blocks, codec, chunk_size=8)
        assert streamed == codec.encode(blocks)

    def test_file_like_sources(self):
        codec = make_codec(6, 4)
        r = random.Random(6)
        blocks = [r.randbytes(50) for __ in range(4)]
        streamed = encode_blocks(
            [io.BytesIO(b) for b in blocks], codec, chunk_size=16, length=50
        )
        assert streamed == codec.encode(blocks)

    def test_unsized_sources_require_length(self):
        codec = make_codec(6, 4)
        with pytest.raises(ValueError, match="length"):
            encode_blocks(
                [io.BytesIO(b"x")] * 4, codec, chunk_size=4
            )


class TestChunkReader:
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_property_chunks_reassemble_source(self, seed):
        r = random.Random(seed)
        payload = r.randbytes(r.randrange(0, 300))
        chunk_size = r.randrange(1, 50)
        chunks = list(ChunkReader(payload, chunk_size))
        assert b"".join(chunks) == payload
        assert all(len(c) == chunk_size for c in chunks[:-1])
        if payload:
            assert 1 <= len(chunks[-1]) <= chunk_size

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_property_all_source_kinds_agree(self, seed):
        r = random.Random(seed)
        payload = r.randbytes(r.randrange(0, 300))
        chunk_size = r.randrange(1, 50)
        from_bytes = [bytes(c) for c in ChunkReader(payload, chunk_size)]
        from_file = [
            bytes(c) for c in ChunkReader(io.BytesIO(payload), chunk_size)
        ]
        pieces, view = [], memoryview(payload)
        offset = 0
        while offset < len(payload):
            step = r.randrange(1, 60)
            pieces.append(bytes(view[offset : offset + step]))
            offset += step
        from_iter = [bytes(c) for c in ChunkReader(iter(pieces), chunk_size)]
        assert from_bytes == from_file == from_iter

    def test_zero_copy_views_over_bytes(self):
        payload = bytes(range(100))
        chunks = list(ChunkReader(payload, 32))
        assert all(isinstance(c, memoryview) for c in chunks)
        assert chunks[0].obj is payload

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            ChunkReader(b"x", 0)
