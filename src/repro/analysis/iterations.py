"""Theorem 1: the expected number of layout redraws EAR needs.

For the ``i``-th data block of a stripe (1-indexed) on a CFS with ``R``
racks, per-rack cap ``c``, and racks with plenty of nodes, the expected
number of attempts to find a layout that raises the max flow to ``i`` is

    E_i <= [ 1 - floor((i - 1) / c) / (R - 1) ] ** -1.

The paper's examples: at R = 20, c = 1 the bound at the k-th block is 1.9
for k = 10 (Facebook) and about 2.4 for k = 12 (Azure).

``empirical_attempts`` measures the real redraw counts from an
:class:`~repro.core.ear.EncodingAwareReplication` run; the theorem's bound
assumes racks with "a sufficiently large number of nodes", so empirical
means can exceed the bound slightly on small racks (node collisions make
condition (ii) of the proof fail occasionally).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.cluster.topology import ClusterTopology
from repro.core.ear import EncodingAwareReplication
from repro.core.policy import ReplicationScheme, TWO_RACKS
from repro.erasure.codec import CodeParams


def theorem1_bound(index: int, num_racks: int, c: int = 1) -> float:
    """The Theorem 1 upper bound on ``E_i``.

    Args:
        index: The block's position ``i`` within its stripe (1-indexed).
        num_racks: Total racks ``R``.
        c: Per-rack cap.

    Raises:
        ValueError: When so many racks are full that no layout can qualify
            (``floor((i-1)/c) >= R - 1``).
    """
    if index < 1:
        raise ValueError("index is 1-based")
    if num_racks < 2:
        raise ValueError("need at least two racks")
    if c < 1:
        raise ValueError("c must be positive")
    full_racks = (index - 1) // c
    denom = 1.0 - full_racks / (num_racks - 1)
    if not denom > 0:
        raise ValueError(
            f"block {index} cannot be placed: up to {full_racks} full racks "
            f"but only {num_racks - 1} non-core racks exist"
        )
    return 1.0 / denom


def theorem1_bounds(k: int, num_racks: int, c: int = 1) -> List[float]:
    """Bounds for every block index 1..k of a stripe."""
    return [theorem1_bound(i, num_racks, c) for i in range(1, k + 1)]


def empirical_attempts(
    num_racks: int,
    nodes_per_rack: int,
    code: CodeParams,
    num_stripes: int,
    rng: Optional[random.Random] = None,
    c: int = 1,
    scheme: ReplicationScheme = TWO_RACKS,
) -> Dict[int, float]:
    """Measure mean redraw counts per block index from real EAR runs.

    Places blocks into a single designated core rack until ``num_stripes``
    stripes have sealed, then averages the recorded attempt counts.

    Returns:
        Mapping block index (1..k) -> mean observed attempts.
    """
    if num_stripes < 1:
        raise ValueError("num_stripes must be positive")
    rng = rng if rng is not None else random.Random(0)
    topology = ClusterTopology(nodes_per_rack=nodes_per_rack, num_racks=num_racks)
    ear = EncodingAwareReplication(
        topology, code, scheme=scheme, rng=rng, c=c
    )
    core_rack = 0
    writer = topology.nodes_in_rack(core_rack)[0]
    block_id = 0
    sealed = 0
    while sealed < num_stripes:
        ear.place_block(block_id, writer_node=writer)
        if ear.store.in_sealed_stripe(block_id):
            sealed += 1
        block_id += 1
    return {
        index: sum(values) / len(values)
        for index, values in ear.attempts_by_index().items()
    }
