"""Differential suite for hop-ordered pipelined parity.

The load-bearing property: :func:`pipelined_parity` is byte-identical to
``codec.encode(blocks, length=length)`` for *every* permutation of the
hop order, every code family (RS/Cauchy/LRC) and lengths straddling
chunk boundaries.  That identity is what lets the simulated pipeline
commit parity through the same verification oracle as the download path.
"""

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure.codec import make_codec
from repro.erasure.lrc import LocalReconstructionCodec, LRCParams
from repro.erasure.stream import encode_blocks
from repro.pipeline.gfstream import pipelined_parity
from repro.sim.metrics import PERF, measure_ops


def random_codec(r):
    """A random codec covering all three code families."""
    family = r.choice(["reed-solomon", "cauchy-rs", "lrc"])
    if family == "lrc":
        groups = r.choice([1, 2])
        k = groups * r.randrange(1, 4)
        return LocalReconstructionCodec(
            LRCParams(k, groups, r.randrange(1, 3))
        )
    k = r.randrange(1, 6)
    return make_codec(k + r.randrange(1, 4), k, family)


class TestPermutationIdentity:
    @given(seed=st.integers(0, 2**20))
    @settings(max_examples=40, deadline=None)
    def test_property_any_hop_order_matches_whole_stripe_encode(self, seed):
        r = random.Random(seed)
        codec = random_codec(r)
        k = codec.params.k
        length = r.randrange(1, 200)
        blocks = [r.randbytes(r.randrange(0, length + 1)) for __ in range(k)]
        order = list(range(k))
        r.shuffle(order)
        got = pipelined_parity(
            blocks, codec, hop_order=order,
            chunk_size=r.randrange(1, 40), length=length,
        )
        assert got == codec.encode(blocks, length=length)

    @given(seed=st.integers(0, 2**18))
    @settings(max_examples=20, deadline=None)
    def test_property_all_orders_agree_with_each_other(self, seed):
        r = random.Random(seed)
        codec = make_codec(5, 3, r.choice(["reed-solomon", "cauchy-rs"]))
        blocks = [r.randbytes(64) for __ in range(3)]
        import itertools

        results = {
            tuple(order): tuple(
                bytes(p) for p in pipelined_parity(
                    blocks, codec, hop_order=list(order), chunk_size=17
                )
            )
            for order in itertools.permutations(range(3))
        }
        assert len(set(results.values())) == 1


class TestHopAttribution:
    def test_on_hop_sees_every_hop_once_in_order(self):
        r = random.Random(3)
        codec = make_codec(6, 4)
        blocks = [r.randbytes(100) for __ in range(4)]
        order = [2, 0, 3, 1]
        seen = []
        pipelined_parity(
            blocks, codec, hop_order=order, chunk_size=32,
            on_hop=lambda i, col, ops: seen.append((i, col)),
        )
        assert seen == [(0, 2), (1, 0), (2, 3), (3, 1)]

    def test_on_hop_deltas_account_for_all_gf_work(self):
        r = random.Random(4)
        codec = make_codec(6, 4)
        blocks = [r.randbytes(200) for __ in range(4)]
        with measure_ops() as stripe_order:
            encode_blocks(blocks, codec, chunk_size=64)
        per_hop = []
        pipelined_parity(
            blocks, codec, hop_order=[3, 0, 2, 1], chunk_size=64,
            on_hop=lambda i, col, ops: per_hop.append(ops),
        )
        for counter in ("gf.kernel_calls", "gf.symbol_mults"):
            assert all(ops.get(counter) > 0 for ops in per_hop)
            assert sum(ops.get(counter) for ops in per_hop) == (
                stripe_order.get(counter)
            )

    def test_perf_counters_bump(self):
        r = random.Random(5)
        codec = make_codec(6, 4)
        blocks = [r.randbytes(90) for __ in range(4)]
        hops0 = PERF.get("pipeline.hops")
        stripes0 = PERF.get("pipeline.stripes_encoded")
        bytes0 = PERF.get("pipeline.bytes_in")
        pipelined_parity(blocks, codec, chunk_size=30)
        assert PERF.get("pipeline.hops") - hops0 == 4
        assert PERF.get("pipeline.stripes_encoded") - stripes0 == 1
        assert PERF.get("pipeline.bytes_in") - bytes0 == 4 * 90


class TestValidation:
    def test_rejects_wrong_source_count(self):
        codec = make_codec(6, 4)
        with pytest.raises(ValueError, match="block sources"):
            pipelined_parity([b"x"] * 3, codec)

    def test_rejects_non_permutation_order(self):
        codec = make_codec(6, 4)
        with pytest.raises(ValueError, match="permutation"):
            pipelined_parity([b"x"] * 4, codec, hop_order=[0, 1, 2, 2])

    def test_rejects_overlong_block(self):
        codec = make_codec(6, 4)
        with pytest.raises(ValueError, match="longer than"):
            pipelined_parity(
                [b"abcdef"] * 4, codec, length=4, chunk_size=2
            )

    def test_unsized_sources_require_length(self):
        codec = make_codec(6, 4)
        with pytest.raises(ValueError, match="length"):
            pipelined_parity([io.BytesIO(b"x")] * 4, codec)

    def test_file_like_sources_with_length(self):
        r = random.Random(7)
        codec = make_codec(6, 4)
        blocks = [r.randbytes(50) for __ in range(4)]
        got = pipelined_parity(
            [io.BytesIO(b) for b in blocks], codec,
            hop_order=[3, 1, 0, 2], chunk_size=16, length=50,
        )
        expected = codec.encode(blocks, length=50)
        assert [bytes(p) for p in got] == [bytes(p) for p in expected]

    def test_zero_length_stripe(self):
        codec = make_codec(6, 4)
        got = pipelined_parity([b""] * 4, codec)
        assert [bytes(p) for p in got] == [b"", b""]
