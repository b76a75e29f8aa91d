"""Equation (1): rack fault-tolerance violation under preliminary EAR.

Preliminary EAR pins one replica of each of the ``k`` stripe blocks in the
core rack and puts the remaining copies in one random non-core rack per
block.  After encoding, rack-level fault tolerance (one block per rack,
``c = 1``) survives iff the per-block rack draws span at least ``k - 1``
distinct racks — with exactly ``k - 1``, one member of the single colliding
pair retains its core-rack copy.  Hence the violation probability

    f = 1 - [ C(R-1, k) k!  +  C(k, 2) C(R-1, k-1) (k-1)! ] / (R-1)^k

which Figure 3 plots against ``R`` for ``k`` in {6, 8, 10, 12}.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Sequence

from repro.cluster.topology import ClusterTopology
from repro.core.matching import RackMatching, retention_capacity


def _check_args(num_racks: int, k: int) -> None:
    if k < 1:
        raise ValueError("k must be positive")
    if num_racks < 2:
        raise ValueError("need at least two racks")


def violation_probability(num_racks: int, k: int) -> float:
    """Closed-form Equation (1).

    Args:
        num_racks: Total racks ``R`` (core rack included).
        k: Data blocks per stripe.

    Returns:
        Probability that a preliminary-EAR stripe cannot satisfy single
        block per rack fault tolerance without relocation.
    """
    _check_args(num_racks, k)
    r_minus_1 = num_racks - 1
    if r_minus_1 < k - 1:
        # Fewer than k - 1 non-core racks: the draws cannot span k - 1
        # distinct racks, so violation is certain.
        return 1.0
    total = r_minus_1 ** k
    all_distinct = math.comb(r_minus_1, k) * math.factorial(k) if r_minus_1 >= k else 0
    one_pair = (
        math.comb(k, 2)
        * math.comb(r_minus_1, k - 1)
        * math.factorial(k - 1)
    )
    f = 1.0 - (all_distinct + one_pair) / total
    # Guard against floating-point drift just outside [0, 1].
    return min(1.0, max(0.0, f))


def violation_probability_mc(
    num_racks: int, k: int, trials: int, rng: random.Random
) -> float:
    """Monte-Carlo estimate of Equation (1) via direct rack draws.

    Draws each block's non-core rack uniformly from the ``R - 1`` non-core
    racks and applies the span criterion (at least ``k - 1`` distinct).
    """
    _check_args(num_racks, k)
    if trials < 1:
        raise ValueError("trials must be positive")
    r_minus_1 = num_racks - 1
    violations = 0
    for __ in range(trials):
        draws = [rng.randrange(r_minus_1) for __ in range(k)]
        if len(set(draws)) < k - 1:
            violations += 1
    return violations / trials


def violation_probability_flowgraph_mc(
    num_racks: int,
    k: int,
    trials: int,
    rng: random.Random,
    nodes_per_rack: int = 50,
) -> float:
    """Monte-Carlo estimate via the *actual* flow-graph feasibility test.

    Builds full replica layouts (core rack + two copies in one random other
    rack, 3-way replication) and asks :class:`RackMatching` with ``c = 1``
    whether a retention matching covers every block.  With many nodes per
    rack this converges to Equation (1); it exists to cross-validate the
    closed form against the machinery EAR really uses.
    """
    _check_args(num_racks, k)
    if trials < 1:
        raise ValueError("trials must be positive")
    topology = ClusterTopology(nodes_per_rack=nodes_per_rack, num_racks=num_racks)
    capacity = retention_capacity(1)
    core_rack = 0
    violations = 0
    for __ in range(trials):
        layout = {}
        for block in range(k):
            primary = rng.choice(topology.nodes_in_rack(core_rack))
            other_rack = rng.randrange(1, num_racks)
            seconds = rng.sample(list(topology.nodes_in_rack(other_rack)), 2)
            layout[block] = (primary, *seconds)
        if len(RackMatching(topology.rack_of, capacity).solve(layout)) < k:
            violations += 1
    return violations / trials


def figure3_table(
    rack_counts: Sequence[int] = tuple(range(14, 41, 2)),
    ks: Sequence[int] = (6, 8, 10, 12),
) -> Dict[int, List[float]]:
    """The Figure 3 data: ``{k: [f(R) for R in rack_counts]}``."""
    return {
        k: [violation_probability(r, k) for r in rack_counts] for k in ks
    }
