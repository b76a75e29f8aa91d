"""Per-coefficient GF(2^8) reference kernels: the test-only oracle.

Nothing in ``repro`` calls these.  The differential tests pin the
packed-word production kernel (:func:`repro.erasure.matrix.apply_to_shards`,
the streaming folds, the block fold) against :func:`apply_to_shards_scalar`
byte for byte.  Like the production kernel, every gather reports counted
work ("gf.kernel_calls", "gf.symbol_mults") into
:data:`repro.sim.metrics.PERF`, so budget tests can compare the two.
"""

from __future__ import annotations

import numpy as np

from repro.erasure.galois import GF256
from repro.sim.metrics import PERF


def mul_array(scalar: int, data: np.ndarray) -> np.ndarray:
    """Multiply every byte of ``data`` by ``scalar``.

    One ``np.take`` gather through the scalar's row of the 256x256 table
    (row 0 is all zeros, row 1 the identity); returns a new ``uint8`` array
    of the same shape.
    """
    if not 0 <= scalar < 256:
        raise ValueError(f"scalar {scalar} outside GF(2^8)")
    data = np.asarray(data, dtype=np.uint8)
    PERF.bump("gf.kernel_calls")
    PERF.bump("gf.symbol_mults", data.size)
    return np.take(GF256.mul_table()[scalar], data)


def addmul_array(acc: np.ndarray, scalar: int, data: np.ndarray) -> None:
    """In-place ``acc ^= scalar * data``."""
    if scalar != 0:
        np.bitwise_xor(acc, mul_array(scalar, data), out=acc)


def apply_to_shards_scalar(coeffs: np.ndarray, shards: np.ndarray) -> np.ndarray:
    """``coeffs @ shards`` over GF(2^8), one ``addmul`` per coefficient."""
    coeffs = np.asarray(coeffs, dtype=np.uint8)
    shards = np.asarray(shards, dtype=np.uint8)
    if shards.ndim != 2 or coeffs.ndim != 2 or coeffs.shape[1] != shards.shape[0]:
        raise ValueError(
            f"incompatible shapes: coeffs {coeffs.shape}, shards {shards.shape}"
        )
    out = np.zeros((coeffs.shape[0], shards.shape[1]), dtype=np.uint8)
    for i in range(coeffs.shape[0]):
        acc = out[i]
        for j in range(coeffs.shape[1]):
            addmul_array(acc, int(coeffs[i, j]), shards[j])
    return out
