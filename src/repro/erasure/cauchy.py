"""Systematic Cauchy Reed-Solomon coding over GF(2^8).

Cauchy RS codes [Blomer et al.] replace the Vandermonde construction with a
Cauchy matrix ``C[i, j] = 1 / (x_i + y_j)`` for disjoint sets of field
elements ``{x_i}`` and ``{y_j}``.  Every square sub-matrix of a Cauchy matrix
is invertible, so an ``(n - k) x k`` Cauchy parity matrix stacked under the
identity yields a systematic MDS code directly — no matrix transformation
needed.  The paper cites Cauchy RS [3] as one of the erasure codes CFSes use.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.erasure import matrix as gfm
from repro.erasure.galois import GF256


def cauchy_matrix(x_points: Sequence[int], y_points: Sequence[int]) -> np.ndarray:
    """The Cauchy matrix ``C[i, j] = 1 / (x_i + y_j)`` over GF(2^8).

    Raises:
        ValueError: If the point sets overlap or contain duplicates (either
            would make some denominator zero or break invertibility).
    """
    xs = list(x_points)
    ys = list(y_points)
    if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
        raise ValueError("x and y points must each be distinct")
    if set(xs) & set(ys):
        raise ValueError("x and y point sets must be disjoint")
    out = np.zeros((len(xs), len(ys)), dtype=np.uint8)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            out[i, j] = GF256.inv(GF256.add(x, y))
    return out


@lru_cache(maxsize=64)
def generator_matrix(n: int, k: int) -> np.ndarray:
    """Cached, **read-only** systematic generator (copy before mutating)."""
    if not 0 < k < n:
        raise ValueError(f"require 0 < k < n, got n={n}, k={k}")
    if n > 256:
        raise ValueError("Cauchy RS over GF(2^8) supports at most n = 256")
    parity = cauchy_matrix(range(k, n), range(k))
    generator = np.concatenate([gfm.identity(k), parity], axis=0)
    generator.setflags(write=False)
    return generator


def parity_matrix(n: int, k: int) -> np.ndarray:
    """The ``(n - k) x k`` Cauchy parity matrix."""
    return generator_matrix(n, k)[k:, :]
