"""Systematic Reed-Solomon coding over GF(2^8).

Builds the generator matrix the way production RS libraries do: start from an
``n x k`` Vandermonde matrix (any ``k`` rows independent), then transform it
so the top ``k x k`` sub-matrix is the identity.  The row-space property is
preserved by the transformation, so any ``k`` of the ``n`` encoded shards
still suffice to reconstruct the data — and the first ``k`` shards *are* the
data (systematic form), matching HDFS-RAID's behaviour of keeping the data
blocks intact.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.erasure import matrix as gfm


@lru_cache(maxsize=64)
def generator_matrix(n: int, k: int) -> np.ndarray:
    """The cached, **read-only** systematic generator for an (n, k) RS code.

    Building a generator costs a Vandermonde construction plus a ``k x k``
    inversion, so the result is memoised per ``(n, k)`` and shared; callers
    that need to mutate it must copy.

    The first ``k`` rows form the identity; the remaining ``n - k`` rows are
    the parity coefficients.

    Raises:
        ValueError: If the parameters do not satisfy ``0 < k < n <= 256``.
    """
    if not 0 < k < n:
        raise ValueError(f"require 0 < k < n, got n={n}, k={k}")
    if n > 256:
        raise ValueError("RS over GF(2^8) supports at most n = 256")
    vander = gfm.vandermonde(n, k)
    top_inverse = gfm.invert(vander[:k, :])
    generator = gfm.matmul(vander, top_inverse)
    # Guard against arithmetic mistakes: the top must now be the identity.
    if not np.array_equal(generator[:k, :], gfm.identity(k)):
        raise AssertionError("generator matrix is not systematic")
    generator.setflags(write=False)
    return generator


def parity_matrix(n: int, k: int) -> np.ndarray:
    """Just the ``(n - k) x k`` parity rows of the generator matrix."""
    return generator_matrix(n, k)[k:, :]
