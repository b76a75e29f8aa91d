"""GF(2^8) arithmetic: axioms, inverses, and vectorised kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure.galois import GF256, GROUP_ORDER, PRIMITIVE_POLY
from tests.erasure.reference_gf import addmul_array, mul_array

elements = st.integers(min_value=0, max_value=255)
nonzero = st.integers(min_value=1, max_value=255)


class TestScalarBasics:
    def test_add_is_xor(self):
        assert GF256.add(0b1010, 0b0110) == 0b1100

    def test_add_self_is_zero(self):
        for a in (0, 1, 7, 200, 255):
            assert GF256.add(a, a) == 0

    def test_sub_equals_add(self):
        assert GF256.sub(17, 99) == GF256.add(17, 99)

    def test_mul_by_zero(self):
        assert GF256.mul(0, 123) == 0
        assert GF256.mul(123, 0) == 0

    def test_mul_by_one(self):
        for a in range(256):
            assert GF256.mul(1, a) == a

    def test_known_product(self):
        # 3 * 7 in the 0x11D field (carry-less multiply then reduce).
        assert GF256.mul(3, 7) == 9

    def test_mul_two_doubles(self):
        # Multiplying by 2 is a shift with conditional reduction.
        assert GF256.mul(2, 0x80) == (0x100 ^ PRIMITIVE_POLY) & 0xFF

    def test_div_inverse_of_mul(self):
        assert GF256.div(GF256.mul(45, 99), 99) == 45

    def test_div_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            GF256.div(5, 0)

    def test_zero_divided(self):
        assert GF256.div(0, 37) == 0

    def test_inv_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            GF256.inv(0)

    def test_inv_of_one(self):
        assert GF256.inv(1) == 1


class TestFieldAxioms:
    @given(a=elements, b=elements)
    def test_mul_commutative(self, a, b):
        assert GF256.mul(a, b) == GF256.mul(b, a)

    @given(a=elements, b=elements, c=elements)
    def test_mul_associative(self, a, b, c):
        assert GF256.mul(GF256.mul(a, b), c) == GF256.mul(a, GF256.mul(b, c))

    @given(a=elements, b=elements, c=elements)
    def test_distributive(self, a, b, c):
        left = GF256.mul(a, GF256.add(b, c))
        right = GF256.add(GF256.mul(a, b), GF256.mul(a, c))
        assert left == right

    @given(a=nonzero)
    def test_inverse(self, a):
        assert GF256.mul(a, GF256.inv(a)) == 1

    @given(a=nonzero, b=nonzero)
    def test_product_of_nonzero_is_nonzero(self, a, b):
        assert GF256.mul(a, b) != 0

    def test_every_element_has_unique_inverse(self):
        inverses = {GF256.inv(a) for a in range(1, 256)}
        assert inverses == set(range(1, 256))


class TestPow:
    def test_pow_zero(self):
        for a in range(1, 256):
            assert GF256.pow(a, 0) == 1

    def test_pow_one(self):
        for a in range(256):
            assert GF256.pow(a, 1) == a

    def test_pow_matches_repeated_mul(self):
        for a in (2, 3, 29, 255):
            acc = 1
            for e in range(1, 10):
                acc = GF256.mul(acc, a)
                assert GF256.pow(a, e) == acc

    def test_generator_order(self):
        # 2 is a generator of the 0x11D field's multiplicative group.
        assert GF256.pow(2, GROUP_ORDER) == 1
        seen = {GF256.pow(2, e) for e in range(GROUP_ORDER)}
        assert len(seen) == GROUP_ORDER

    def test_negative_power(self):
        assert GF256.pow(7, -1) == GF256.inv(7)

    def test_zero_to_negative_raises(self):
        with pytest.raises(ZeroDivisionError):
            GF256.pow(0, -2)

    def test_zero_to_positive(self):
        assert GF256.pow(0, 5) == 0

    def test_zero_to_zero_is_one(self):
        assert GF256.pow(0, 0) == 1


class TestVectorisedKernels:
    def test_mul_array_matches_scalar(self, rng):
        data = np.array([rng.randrange(256) for __ in range(300)], dtype=np.uint8)
        for scalar in (0, 1, 2, 37, 255):
            out = mul_array(scalar, data)
            expected = [GF256.mul(scalar, int(x)) for x in data]
            assert out.tolist() == expected

    def test_mul_array_rejects_bad_scalar(self):
        with pytest.raises(ValueError):
            mul_array(256, np.zeros(4, dtype=np.uint8))

    def test_mul_array_preserves_shape(self):
        data = np.zeros((3, 5), dtype=np.uint8)
        assert mul_array(9, data).shape == (3, 5)

    def test_mul_array_returns_copy_for_one(self):
        data = np.array([1, 2, 3], dtype=np.uint8)
        out = mul_array(1, data)
        out[0] = 99
        assert data[0] == 1

    def test_addmul_array_matches_scalar(self, rng):
        acc = np.array([rng.randrange(256) for __ in range(100)], dtype=np.uint8)
        data = np.array([rng.randrange(256) for __ in range(100)], dtype=np.uint8)
        expected = [
            GF256.add(int(a), GF256.mul(29, int(d))) for a, d in zip(acc, data)
        ]
        addmul_array(acc, 29, data)
        assert acc.tolist() == expected

    def test_addmul_zero_scalar_is_noop(self):
        acc = np.array([5, 6], dtype=np.uint8)
        addmul_array(acc, 0, np.array([9, 9], dtype=np.uint8))
        assert acc.tolist() == [5, 6]

    def test_addmul_one_scalar_is_xor(self):
        acc = np.array([0b1100], dtype=np.uint8)
        addmul_array(acc, 1, np.array([0b1010], dtype=np.uint8))
        assert acc.tolist() == [0b0110]

    @given(scalar=elements, seed=st.integers(0, 2**16))
    @settings(max_examples=30)
    def test_mul_array_random(self, scalar, seed):
        import random as _random

        r = _random.Random(seed)
        data = np.array([r.randrange(256) for __ in range(16)], dtype=np.uint8)
        out = mul_array(scalar, data)
        assert out.tolist() == [GF256.mul(scalar, int(x)) for x in data]


def test_elements_iterates_full_field():
    assert list(GF256.elements()) == list(range(256))
