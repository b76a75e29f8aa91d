"""Systematic Reed-Solomon: the generator's MDS property, seen both as
matrix rank and as byte-level decodes through the codec built on it."""

import itertools

import numpy as np
import pytest

from repro.erasure import matrix as gfm
from repro.erasure import reed_solomon as rs
from repro.erasure.codec import make_codec


def random_stripe(rng, n, k, length):
    """All ``n`` blocks of one random RS stripe, keyed by stripe index."""
    data = [rng.randbytes(length) for __ in range(k)]
    return dict(enumerate(data + make_codec(n, k).encode(data)))


class TestGeneratorMatrix:
    def test_systematic_top(self):
        g = rs.generator_matrix(6, 4)
        assert np.array_equal(g[:4, :], gfm.identity(4))

    def test_shape(self):
        assert rs.generator_matrix(14, 10).shape == (14, 10)

    def test_cached_and_read_only(self):
        g = rs.generator_matrix(6, 4)
        assert rs.generator_matrix(6, 4) is g
        with pytest.raises(ValueError):
            g[0, 0] = 7

    def test_every_k_subset_invertible_small(self):
        # Exhaustive MDS check for (6, 3): all C(6,3) row subsets invert.
        g = rs.generator_matrix(6, 3)
        for rows in itertools.combinations(range(6), 3):
            gfm.invert(g[list(rows), :])

    def test_every_k_subset_invertible_facebook(self, rng):
        g = rs.generator_matrix(14, 10)
        for __ in range(25):
            rows = rng.sample(range(14), 10)
            gfm.invert(g[rows, :])

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            rs.generator_matrix(4, 4)
        with pytest.raises(ValueError):
            rs.generator_matrix(3, 0)
        with pytest.raises(ValueError):
            rs.generator_matrix(300, 10)

    def test_parity_matrix_is_bottom_rows(self):
        g = rs.generator_matrix(8, 6)
        assert np.array_equal(rs.parity_matrix(8, 6), g[6:, :])


class TestEncodeDecode:
    def test_decode_from_parity_only(self, rng):
        stripe = random_stripe(rng, 5, 2, 16)
        out = make_codec(5, 2).decode({2: stripe[2], 3: stripe[3]})
        assert out == [stripe[0], stripe[1]]

    def test_decode_every_k_subset(self, rng):
        n, k = 6, 3
        stripe = random_stripe(rng, n, k, 20)
        codec = make_codec(n, k)
        for subset in itertools.combinations(range(n), k):
            out = codec.decode({i: stripe[i] for i in subset})
            assert out == [stripe[i] for i in range(k)], subset
