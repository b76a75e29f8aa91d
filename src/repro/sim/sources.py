"""Seeded stochastic sources for workload generation.

The paper's traffic streams are Poisson arrivals (write requests at 0.5 or
1 request/s, background requests at 1 request/s) with fixed 64 MB writes and
exponentially distributed background sizes (mean 64 MB).
"""

from __future__ import annotations

import random
from typing import Iterator, Optional


def poisson_arrivals(
    rng: random.Random, rate: float, limit: Optional[int] = None
) -> Iterator[float]:
    """Inter-arrival gaps of a Poisson process.

    Args:
        rng: Seeded random source.
        rate: Mean arrivals per second (> 0).
        limit: Number of arrivals to produce; infinite when ``None``.

    Yields:
        Exponentially distributed gaps with mean ``1 / rate`` seconds.
    """
    if not rate > 0:
        raise ValueError("rate must be positive")
    count = 0
    while limit is None or count < limit:
        yield rng.expovariate(rate)
        count += 1


def exponential_sizes(
    rng: random.Random, mean: float, minimum: float = 1.0
) -> Iterator[float]:
    """Exponentially distributed request sizes with a floor.

    Args:
        rng: Seeded random source.
        mean: Mean size in bytes.
        minimum: Smallest size ever produced (transfers need positive size).
    """
    if not mean > 0:
        raise ValueError("mean must be positive")
    if not minimum > 0:
        raise ValueError("minimum must be positive")
    while True:
        yield max(minimum, rng.expovariate(1.0 / mean))


def fixed_sizes(size: float) -> Iterator[float]:
    """A constant size stream (64 MB write requests)."""
    if not size > 0:
        raise ValueError("size must be positive")
    while True:
        yield size
