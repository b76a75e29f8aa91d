"""ErasureCodec byte-level API: padding, verify, reconstruct, factory."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure.codec import (
    CauchyRSCodec,
    CodeParams,
    ReedSolomonCodec,
    make_codec,
)


class TestCodeParams:
    def test_valid(self):
        p = CodeParams(14, 10)
        assert p.num_parity == 4
        assert p.storage_overhead == pytest.approx(1.4)
        assert p.node_failures_tolerated == 4

    def test_invalid(self):
        with pytest.raises(ValueError):
            CodeParams(4, 4)
        with pytest.raises(ValueError):
            CodeParams(4, 0)
        with pytest.raises(ValueError):
            CodeParams(4, 5)
        with pytest.raises(ValueError):
            CodeParams(260, 10)

    def test_rack_failures_with_c(self):
        p = CodeParams(14, 10)
        assert p.rack_failures_tolerated(1) == 4
        assert p.rack_failures_tolerated(2) == 2
        assert p.rack_failures_tolerated(3) == 1
        assert p.rack_failures_tolerated(4) == 1
        assert p.rack_failures_tolerated(5) == 0

    def test_rack_failures_invalid_c(self):
        with pytest.raises(ValueError):
            CodeParams(14, 10).rack_failures_tolerated(0)

    def test_min_racks(self):
        p = CodeParams(14, 10)
        assert p.min_racks(1) == 14
        assert p.min_racks(4) == 4  # ceil(14 / 4)
        assert p.min_racks(14) == 1

    def test_str(self):
        assert str(CodeParams(10, 8)) == "(10,8)"

    def test_azure_overhead(self):
        # The paper's motivation: Azure's overhead of 1.33.
        assert CodeParams(16, 12).storage_overhead == pytest.approx(4 / 3)


@pytest.fixture(params=[ReedSolomonCodec, CauchyRSCodec])
def codec(request):
    return request.param(CodeParams(6, 4))


class TestEncodeDecode:
    def test_roundtrip_equal_sizes(self, codec):
        data = [bytes([i]) * 100 for i in range(4)]
        parity = codec.encode(data)
        assert len(parity) == 2
        available = {0: data[0], 3: data[3], 4: parity[0], 5: parity[1]}
        assert codec.decode(available) == data

    def test_roundtrip_with_padding(self, codec):
        data = [b"short", b"a much longer block here", b"mid-size!", b"x"]
        parity = codec.encode(data)
        available = {1: data[1].ljust(24, b"\0"), 2: data[2].ljust(24, b"\0"),
                     4: parity[0], 5: parity[1]}
        lengths = [len(d) for d in data]
        out = codec.decode(available, original_lengths=lengths)
        assert out == data

    def test_decode_prefers_lowest_indices(self, codec):
        data = [bytes([i]) * 16 for i in range(4)]
        parity = codec.encode(data)
        everything = {i: b for i, b in enumerate(data)}
        everything.update({4 + i: p for i, p in enumerate(parity)})
        assert codec.decode(everything) == [d for d in data]

    def test_too_few_blocks(self, codec):
        with pytest.raises(ValueError):
            codec.decode({0: b"a", 1: b"b", 2: b"c"})

    def test_wrong_block_count_encode(self, codec):
        with pytest.raises(ValueError):
            codec.encode([b"a", b"b"])

    def test_empty_block_rejected(self, codec):
        with pytest.raises(ValueError):
            codec.encode([b"", b"a", b"b", b"c"])

    def test_wrong_lengths_list(self, codec):
        data = [b"aaaa"] * 4
        parity = codec.encode(data)
        available = {i: d for i, d in enumerate(data)}
        with pytest.raises(ValueError):
            codec.decode(available, original_lengths=[4, 4])


class TestSurvivorIndices:
    """Caller-supplied stripe indices are range-checked, not numpy-wrapped."""

    @pytest.fixture
    def blocks(self, codec):
        data = [bytes([i + 1]) * 8 for i in range(4)]
        return dict(enumerate(data + codec.encode(data)))

    @pytest.mark.parametrize("bad", [-1, 6, 9])
    def test_out_of_range_index_rejected(self, codec, blocks, bad):
        survivors = {bad: blocks[5], 0: blocks[0], 1: blocks[1], 2: blocks[2]}
        with pytest.raises(ValueError, match=f"index {bad} outside"):
            codec.decode(survivors)
        with pytest.raises(ValueError, match=f"index {bad} outside"):
            codec.reconstruct(3, survivors)
        with pytest.raises(ValueError, match=f"index {bad} outside"):
            codec.decode_plan(survivors)
        with pytest.raises(ValueError, match=f"index {bad} outside"):
            codec.repair_plan(3, survivors)

    def test_aliased_duplicate_rejected(self, codec, blocks):
        # -1 used to wrap to row 5: the same row twice, a singular system.
        survivors = {-1: blocks[5], 5: blocks[5], 0: blocks[0], 1: blocks[1]}
        with pytest.raises(ValueError, match="index -1 outside"):
            codec.decode(survivors)


class TestReconstruct:
    def test_reconstruct_each_position(self, codec):
        data = [bytes(range(i, i + 32)) for i in range(4)]
        parity = codec.encode(data)
        blocks = {i: d for i, d in enumerate(data)}
        blocks.update({4 + i: p for i, p in enumerate(parity)})
        for lost in range(6):
            survivors = {i: b for i, b in blocks.items() if i != lost}
            rebuilt = codec.reconstruct(lost, survivors)
            assert rebuilt == blocks[lost]

    def test_reconstruct_bad_index(self, codec):
        with pytest.raises(ValueError):
            codec.reconstruct(9, {})


class TestVerify:
    def test_verify_accepts_consistent_stripe(self, codec):
        data = [bytes([7 * i + 1]) * 20 for i in range(4)]
        parity = codec.encode(data)
        blocks = {i: d for i, d in enumerate(data)}
        blocks.update({4 + i: p for i, p in enumerate(parity)})
        assert codec.verify(blocks)

    def test_verify_detects_corruption(self, codec):
        data = [bytes([i]) * 20 for i in range(4)]
        parity = codec.encode(data)
        blocks = {i: d for i, d in enumerate(data)}
        blocks.update({4 + i: p for i, p in enumerate(parity)})
        blocks[5] = bytes(20)  # corrupt one parity block
        assert not codec.verify(blocks)

    def test_verify_requires_full_stripe(self, codec):
        with pytest.raises(ValueError):
            codec.verify({0: b"x"})


class TestFactory:
    def test_by_name(self):
        assert isinstance(make_codec(6, 4, "rs"), ReedSolomonCodec)
        assert isinstance(make_codec(6, 4, "reed-solomon"), ReedSolomonCodec)
        assert isinstance(make_codec(6, 4, "cauchy"), CauchyRSCodec)
        assert isinstance(make_codec(6, 4, "cauchy-rs"), CauchyRSCodec)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            make_codec(6, 4, "raptor")

    def test_default_scheme_is_rs(self):
        assert make_codec(10, 8).scheme == "reed-solomon"


@given(
    seed=st.integers(0, 2**20),
    k=st.integers(2, 10),
    m=st.integers(1, 4),
    length=st.integers(1, 64),
)
@settings(max_examples=25, deadline=None)
def test_property_any_k_recovers(seed, k, m, length):
    """MDS at the byte level: any k of n blocks reconstruct the data."""
    import random

    r = random.Random(seed)
    codec = make_codec(k + m, k, "rs" if seed % 2 else "cauchy")
    data = [bytes(r.randrange(256) for __ in range(length)) for __ in range(k)]
    parity = codec.encode(data)
    blocks = {i: d.ljust(length, b"\0") for i, d in enumerate(data)}
    blocks.update({k + i: p for i, p in enumerate(parity)})
    subset = r.sample(range(k + m), k)
    out = codec.decode({i: blocks[i] for i in subset},
                       original_lengths=[len(d) for d in data])
    assert out == data


class TestStreamingChunkContract:
    """The explicit zero-padding/length-trailer contract (streaming plane).

    These pin down the short-final-chunk bug class: the empty-source and
    exactly-one-chunk cases the legacy per-stripe API never exercised.
    """

    def test_zero_pad(self):
        from repro.erasure.codec import zero_pad

        assert zero_pad(b"ab", 4) == b"ab\0\0"
        assert zero_pad(b"abcd", 4) == b"abcd"
        assert zero_pad(b"", 3) == b"\0\0\0"
        with pytest.raises(ValueError):
            zero_pad(b"abcde", 4)

    def test_trailer_roundtrip(self):
        from repro.erasure.codec import StreamTrailer

        trailer = StreamTrailer(length=1234, chunk_size=64)
        assert StreamTrailer.unpack(trailer.pack()) == trailer

    def test_trailer_rejects_garbage(self):
        from repro.erasure.codec import StreamTrailer

        trailer = StreamTrailer(length=5, chunk_size=4)
        packed = trailer.pack()
        with pytest.raises(ValueError, match="magic"):
            StreamTrailer.unpack(b"XXXX" + packed[4:])
        with pytest.raises(ValueError, match="version"):
            StreamTrailer.unpack(packed[:4] + b"\x7f" + packed[5:])
        with pytest.raises(ValueError, match="bytes"):
            StreamTrailer.unpack(packed[:-1])

    def test_trailer_validation(self):
        from repro.erasure.codec import StreamTrailer

        with pytest.raises(ValueError):
            StreamTrailer(length=-1, chunk_size=4)
        with pytest.raises(ValueError):
            StreamTrailer(length=0, chunk_size=0)

    def test_empty_source_case(self):
        from repro.erasure.codec import StreamTrailer

        trailer = StreamTrailer(length=0, chunk_size=64)
        assert trailer.num_chunks == 0
        assert trailer.padding == 0
        assert trailer.num_stripes(4) == 0
        assert trailer.padded_length(4) == 0
        assert trailer.strip(b"") == b""

    def test_exactly_one_chunk_case(self):
        from repro.erasure.codec import StreamTrailer

        trailer = StreamTrailer(length=64, chunk_size=64)
        assert trailer.num_chunks == 1
        assert trailer.padding == 0  # a full chunk is never padded
        assert trailer.num_stripes(4) == 1
        assert trailer.padded_length(4) == 4 * 64

    def test_short_final_chunk_case(self):
        from repro.erasure.codec import StreamTrailer

        trailer = StreamTrailer(length=65, chunk_size=64)
        assert trailer.num_chunks == 2
        assert trailer.padding == 63
        assert trailer.strip(b"x" * 65 + b"\0" * 63) == b"x" * 65

    def test_strip_rejects_truncated_payload(self):
        from repro.erasure.codec import StreamTrailer

        with pytest.raises(ValueError, match="shorter"):
            StreamTrailer(length=10, chunk_size=4).strip(b"abc")

    def test_encode_explicit_length_pads_blocks(self):
        codec = make_codec(6, 4)
        blocks = [b"abcd", b"ef", b"", b"ghij"]
        explicit = codec.encode(blocks, length=4)
        legacy = codec.encode([b"abcd", b"ef\0\0", b"\0\0\0\0", b"ghij"])
        assert explicit == legacy
        assert all(len(p) == 4 for p in explicit)

    def test_encode_empty_source_with_explicit_length(self):
        codec = make_codec(6, 4)
        parity = codec.encode([b"", b"", b"", b""], length=0)
        assert parity == [b"", b""]

    def test_encode_rejects_oversize_block(self):
        codec = make_codec(6, 4)
        with pytest.raises(ValueError, match="exceeds"):
            codec.encode([b"abcde", b"", b"", b""], length=4)
        with pytest.raises(ValueError, match="non-negative"):
            codec.encode([b"", b"", b"", b""], length=-1)

    def test_legacy_contract_unchanged(self):
        codec = make_codec(6, 4)
        with pytest.raises(ValueError, match="non-empty"):
            codec.encode([b"ab", b"", b"cd", b"ef"])
