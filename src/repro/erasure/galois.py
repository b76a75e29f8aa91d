"""GF(2^8) finite-field arithmetic with numpy-vectorised kernels.

The field is constructed over the AES/Rijndael-compatible primitive polynomial
``x^8 + x^4 + x^3 + x^2 + 1`` (0x11D), the polynomial used by most storage
erasure-coding libraries (e.g. Jerasure, ISA-L).  Single-element operations
work on Python ints; bulk operations accept numpy ``uint8`` arrays and use
precomputed log/antilog tables.

The full 256x256 multiplication table (:meth:`GF256.mul_table`) trades
64 KiB of memory for a single gather per operation — the same trade
Jerasure's "big table" variant makes.  The production kernel in
:mod:`repro.erasure.matrix` packs rows of it into word-wide lookup tables.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

#: Primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (decimal 285).
PRIMITIVE_POLY = 0x11D

#: Order of the multiplicative group of GF(2^8).
GROUP_ORDER = 255

ArrayLike = Union[int, np.ndarray]


def _build_tables():
    """Precompute exp/log tables for the multiplicative group."""
    exp = np.zeros(512, dtype=np.int32)
    log = np.zeros(256, dtype=np.int32)
    value = 1
    for power in range(GROUP_ORDER):
        exp[power] = value
        log[value] = power
        value <<= 1
        if value & 0x100:
            value ^= PRIMITIVE_POLY
    # Duplicate the table so exp[a + b] works without a modulo for a,b < 255.
    exp[GROUP_ORDER : 2 * GROUP_ORDER] = exp[:GROUP_ORDER]
    exp[2 * GROUP_ORDER :] = exp[: 512 - 2 * GROUP_ORDER]
    return exp, log


_EXP, _LOG = _build_tables()


def _build_mul_table() -> np.ndarray:
    """The full 256x256 product table ``T[a, b] = a * b`` over GF(2^8)."""
    logs = _LOG[np.arange(256)]
    table = _EXP[logs[:, None] + logs[None, :]].astype(np.uint8)
    # log[0] is a placeholder; zero annihilates, so fix row and column 0.
    table[0, :] = 0
    table[:, 0] = 0
    table.setflags(write=False)
    return table


_MUL_TABLE = _build_mul_table()

class GF256:
    """Arithmetic in GF(2^8).

    All methods are static; the class exists as a namespace so call sites
    read as ``GF256.mul(a, b)``.

    Example:
        >>> GF256.mul(3, 7)
        9
        >>> GF256.mul(GF256.inv(5), 5)
        1
    """

    ORDER = 256

    @staticmethod
    def add(a: ArrayLike, b: ArrayLike) -> ArrayLike:
        """Addition is XOR in characteristic-2 fields."""
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return np.bitwise_xor(a, b)
        return a ^ b

    #: Subtraction equals addition in GF(2^8).
    sub = add

    @staticmethod
    def mul(a: int, b: int) -> int:
        """Scalar multiply."""
        if a == 0 or b == 0:
            return 0
        return int(_EXP[_LOG[a] + _LOG[b]])

    @staticmethod
    def div(a: int, b: int) -> int:
        """Scalar divide.

        Raises:
            ZeroDivisionError: When ``b`` is zero.
        """
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(2^8)")
        if a == 0:
            return 0
        return int(_EXP[(_LOG[a] - _LOG[b]) % GROUP_ORDER])

    @staticmethod
    def inv(a: int) -> int:
        """Multiplicative inverse.

        Raises:
            ZeroDivisionError: When ``a`` is zero.
        """
        if a == 0:
            raise ZeroDivisionError("zero has no inverse in GF(2^8)")
        return int(_EXP[GROUP_ORDER - _LOG[a]])

    @staticmethod
    def pow(a: int, exponent: int) -> int:
        """Raise ``a`` to an integer power (negative powers allowed)."""
        if a == 0:
            if exponent == 0:
                return 1
            if exponent < 0:
                raise ZeroDivisionError("zero has no negative powers")
            return 0
        return int(_EXP[(_LOG[a] * exponent) % GROUP_ORDER])

    @staticmethod
    def mul_table() -> np.ndarray:
        """The full 256x256 multiplication table (read-only).

        ``mul_table()[a, b] == mul(a, b)`` for every pair of field elements;
        the packed-word kernel's lookup tables are built from its rows.
        """
        return _MUL_TABLE

    @staticmethod
    def elements() -> Iterable[int]:
        """All 256 field elements."""
        return range(256)
