"""Cauchy Reed-Solomon: matrix structure and MDS behaviour."""

import itertools

import numpy as np
import pytest

from repro.erasure import cauchy
from repro.erasure import matrix as gfm
from repro.erasure.codec import make_codec
from repro.erasure.galois import GF256


def random_stripe(rng, n, k, length):
    """All ``n`` blocks of one random Cauchy stripe, keyed by stripe index."""
    data = [rng.randbytes(length) for __ in range(k)]
    return dict(enumerate(data + make_codec(n, k, "cauchy").encode(data)))


class TestCauchyMatrix:
    def test_entries(self):
        m = cauchy.cauchy_matrix([4, 5], [0, 1])
        for i, x in enumerate((4, 5)):
            for j, y in enumerate((0, 1)):
                assert m[i, j] == GF256.inv(x ^ y)

    def test_overlapping_points_rejected(self):
        with pytest.raises(ValueError):
            cauchy.cauchy_matrix([1, 2], [2, 3])

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            cauchy.cauchy_matrix([1, 1], [2, 3])
        with pytest.raises(ValueError):
            cauchy.cauchy_matrix([1, 4], [3, 3])

    def test_every_square_submatrix_invertible(self, rng):
        m = cauchy.cauchy_matrix(range(8, 14), range(6))
        for __ in range(20):
            size = rng.randrange(1, 5)
            rows = rng.sample(range(6), size)
            cols = rng.sample(range(6), size)
            gfm.invert(m[np.ix_(sorted(rows), sorted(cols))])


class TestGenerator:
    def test_systematic(self):
        g = cauchy.generator_matrix(6, 4)
        assert np.array_equal(g[:4, :], gfm.identity(4))

    def test_cached_and_read_only(self):
        g = cauchy.generator_matrix(6, 4)
        assert cauchy.generator_matrix(6, 4) is g
        with pytest.raises(ValueError):
            g[0, 0] = 7

    def test_bad_params(self):
        with pytest.raises(ValueError):
            cauchy.generator_matrix(4, 4)
        with pytest.raises(ValueError):
            cauchy.generator_matrix(270, 4)

    def test_every_k_subset_invertible(self):
        g = cauchy.generator_matrix(6, 3)
        for rows in itertools.combinations(range(6), 3):
            gfm.invert(g[list(rows), :])


class TestEncodeDecode:
    def test_roundtrip_all_subsets(self, rng):
        n, k = 6, 3
        stripe = random_stripe(rng, n, k, 18)
        codec = make_codec(n, k, "cauchy")
        for subset in itertools.combinations(range(n), k):
            out = codec.decode({i: stripe[i] for i in subset})
            assert out == [stripe[i] for i in range(k)], subset

    def test_facebook_params(self, rng):
        n, k = 14, 10
        stripe = random_stripe(rng, n, k, 8)
        subset = rng.sample(range(n), k)
        out = make_codec(n, k, "cauchy").decode({i: stripe[i] for i in subset})
        assert out == [stripe[i] for i in range(k)]

    def test_differs_from_vandermonde_rs(self, rng):
        # Same data, different code construction -> different parity bytes.
        data = [rng.randbytes(16) for __ in range(4)]
        assert make_codec(6, 4, "cauchy").encode(data) != (
            make_codec(6, 4, "rs").encode(data)
        )
