"""Locally repairable codes: local repair, global decode, Azure params."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure.lrc import LocalReconstructionCodec, LRCParams


def stripe_blocks(codec, rng, length=64):
    data = [
        bytes(rng.randrange(256) for __ in range(length))
        for __ in range(codec.params.k)
    ]
    parity = codec.encode(data)
    blocks = {i: d for i, d in enumerate(data)}
    blocks.update({codec.params.k + i: p for i, p in enumerate(parity)})
    return data, blocks


class TestParams:
    def test_azure_lrc(self):
        p = LRCParams(12, 2, 2)
        assert p.n == 16
        assert p.group_size == 6
        assert p.storage_overhead == pytest.approx(16 / 12)

    def test_group_arithmetic(self):
        p = LRCParams(6, 2, 2)
        assert p.group_of(0) == 0
        assert p.group_of(5) == 1
        assert p.group_members(1) == [3, 4, 5]
        assert p.local_parity_index(0) == 6
        assert p.local_parity_index(1) == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            LRCParams(5, 2, 2)  # groups must divide k
        with pytest.raises(ValueError):
            LRCParams(0, 1, 1)
        with pytest.raises(ValueError):
            LRCParams(4, 2, 0)
        with pytest.raises(ValueError):
            LRCParams(6, 2, 2).group_of(6)
        with pytest.raises(ValueError):
            LRCParams(6, 2, 2).group_members(2)

    def test_str(self):
        assert str(LRCParams(12, 2, 2)) == "LRC(12,2,2)"


@pytest.fixture
def codec():
    return LocalReconstructionCodec(LRCParams(6, 2, 2))


class TestEncodeVerify:
    def test_parity_count(self, codec, rng):
        data, blocks = stripe_blocks(codec, rng)
        assert len(blocks) == codec.params.n

    def test_local_parity_is_group_xor(self, codec, rng):
        data, blocks = stripe_blocks(codec, rng)
        for group in (0, 1):
            members = codec.params.group_members(group)
            acc = bytes(len(data[0]))
            for m in members:
                acc = bytes(a ^ b for a, b in zip(acc, data[m]))
            assert blocks[codec.params.local_parity_index(group)] == acc

    def test_verify(self, codec, rng):
        data, blocks = stripe_blocks(codec, rng)
        assert codec.verify(blocks)
        blocks[7] = bytes(len(data[0]))
        assert not codec.verify(blocks)

    def test_verify_needs_full_stripe(self, codec):
        with pytest.raises(ValueError):
            codec.verify({0: b"x"})

    def test_generator_systematic(self, codec):
        import numpy as np
        from repro.erasure import matrix as gfm

        g = codec.generator
        assert np.array_equal(g[: codec.params.k], gfm.identity(codec.params.k))


class TestLocalRepair:
    def test_data_loss_repairs_from_group_only(self, codec, rng):
        data, blocks = stripe_blocks(codec, rng)
        for lost in range(codec.params.k):
            survivors = {i: b for i, b in blocks.items() if i != lost}
            rebuilt, read = codec.repair(lost, survivors)
            assert rebuilt == blocks[lost]
            group = codec.params.group_of(lost)
            expected_set = set(
                codec.params.group_members(group)
                + [codec.params.local_parity_index(group)]
            ) - {lost}
            assert set(read) == expected_set
            assert len(read) == codec.params.group_size  # k/l reads

    def test_local_parity_loss_repairs_locally(self, codec, rng):
        data, blocks = stripe_blocks(codec, rng)
        lost = codec.params.local_parity_index(0)
        survivors = {i: b for i, b in blocks.items() if i != lost}
        rebuilt, read = codec.repair(lost, survivors)
        assert rebuilt == blocks[lost]
        assert set(read) == set(codec.params.group_members(0))

    def test_global_parity_loss_needs_global_decode(self, codec, rng):
        data, blocks = stripe_blocks(codec, rng)
        lost = codec.params.n - 1
        survivors = {i: b for i, b in blocks.items() if i != lost}
        rebuilt, read = codec.repair(lost, survivors)
        assert rebuilt == blocks[lost]
        assert len(read) == codec.params.k

    def test_repair_cost(self, codec):
        assert codec.repair_cost(0) == codec.params.group_size
        assert codec.repair_cost(6) == codec.params.group_size
        assert codec.repair_cost(codec.params.n - 1) == codec.params.k
        with pytest.raises(ValueError):
            codec.repair_cost(99)

    def test_repair_cost_beats_rs(self):
        """The LRC selling point: repair reads k/l blocks, RS reads k."""
        azure = LocalReconstructionCodec(LRCParams(12, 2, 2))
        assert azure.repair_cost(0) == 6  # vs 12 for RS(16, 12)


class TestGlobalDecode:
    def test_decode_from_data(self, codec, rng):
        data, blocks = stripe_blocks(codec, rng)
        available = {i: blocks[i] for i in range(codec.params.k)}
        assert codec.decode(available) == data

    def test_two_failures_in_one_group(self, codec, rng):
        # Two data blocks of group 0 lost: local parity can't fix both, but
        # one local + one global parity can.
        data, blocks = stripe_blocks(codec, rng)
        survivors = {i: b for i, b in blocks.items() if i not in (0, 1)}
        assert codec.decode(survivors) == data

    def test_three_failures_recoverable_pattern(self, codec, rng):
        # One per group + one global parity: still full rank.
        data, blocks = stripe_blocks(codec, rng)
        survivors = {
            i: b for i, b in blocks.items() if i not in (0, 3, 9)
        }
        assert codec.decode(survivors) == data

    def test_unrecoverable_pattern_raises(self, codec, rng):
        # Losing 3 data blocks of one group exceeds what 1 local + 2 global
        # parities can restore... actually 3 erasures with 3 parities
        # covering them is borderline; drop 4 blocks of one group's span to
        # force failure.
        data, blocks = stripe_blocks(codec, rng)
        survivors = {
            i: b for i, b in blocks.items() if i not in (0, 1, 2, 6)
        }
        # Group 0 entirely gone plus its local parity: only 2 global
        # parities remain for 3 unknowns.
        with pytest.raises(ValueError):
            codec.decode(survivors)

    def test_too_few_blocks(self, codec):
        with pytest.raises(ValueError):
            codec.decode({0: b"x"})

    @pytest.mark.parametrize("bad", [-1, 10, 99])
    def test_out_of_range_index_rejected(self, codec, rng, bad):
        data, blocks = stripe_blocks(codec, rng)
        survivors = {i: b for i, b in blocks.items() if i != 9}
        survivors[bad] = blocks[9]
        with pytest.raises(ValueError, match=f"index {bad} outside"):
            codec.decode(survivors)
        # Both repair routes: the local group (0) and a global decode (8).
        for lost in (0, 8):
            del survivors[lost]
            with pytest.raises(ValueError, match=f"index {bad} outside"):
                codec.repair(lost, survivors)
            with pytest.raises(ValueError, match=f"index {bad} outside"):
                codec.repair_plan(lost, survivors)
            survivors[lost] = blocks[lost]

    def test_aliased_duplicate_rejected(self, codec, rng):
        # -1 used to wrap to row 9: the same row under two keys.
        data, blocks = stripe_blocks(codec, rng)
        survivors = {i: blocks[i] for i in (0, 1, 2, 3, 4, 9)}
        survivors[-1] = blocks[9]
        with pytest.raises(ValueError, match="index -1 outside"):
            codec.decode(survivors)


@given(seed=st.integers(0, 2**16))
@settings(max_examples=15, deadline=None)
def test_property_single_failures_always_local(seed):
    rng = random.Random(seed)
    params = LRCParams(8, 2, 2)
    codec = LocalReconstructionCodec(params)
    data, blocks = stripe_blocks(codec, rng, length=32)
    lost = rng.randrange(params.k + params.local_groups)
    survivors = {i: b for i, b in blocks.items() if i != lost}
    rebuilt, read = codec.repair(lost, survivors)
    assert rebuilt == blocks[lost]
    assert len(read) <= params.group_size
