"""List-rebuilding reference for the placement draws (test oracle only).

These are the shared :class:`~repro.core.policy.PlacementPolicy` helpers
as they were before the policy kept its tables: every rack draw rebuilds
the eligible-rack list from ``topology.rack_sizes``, every layout
recomputes ``scheme.rack_group_sizes()``, and every node draw, a
one-copy group included, is one ``rng.sample`` of the rack's nodes.  The
table-driven helpers must return the same nodes and leave ``rng`` in the
same state (``tests/core/test_draw_equivalence.py``).
"""

import random
from typing import Iterable, List

from repro.cluster.topology import ClusterTopology
from repro.core.policy import PlacementError, ReplicationScheme


def random_rack(
    topology: ClusterTopology,
    rng: random.Random,
    exclude: Iterable[int] = (),
    min_nodes: int = 1,
) -> int:
    """A uniformly random rack outside ``exclude`` with enough nodes."""
    excluded = set(exclude)
    candidates = [
        rack_id
        for rack_id, size in enumerate(topology.rack_sizes)
        if size >= min_nodes and rack_id not in excluded
    ]
    if not candidates:
        raise PlacementError(
            f"no eligible rack with at least {min_nodes} node(s) remains"
        )
    return rng.choice(candidates)


def random_nodes_in_rack(
    topology: ClusterTopology, rng: random.Random, rack_id: int, count: int
) -> List[int]:
    """``count`` distinct random nodes of one rack."""
    candidates = topology.nodes_in_rack(rack_id)
    if len(candidates) < count:
        raise PlacementError(
            f"rack {rack_id} has only {len(candidates)} eligible nodes, "
            f"need {count}"
        )
    return rng.sample(candidates, count)


def draw_layout(
    topology: ClusterTopology,
    scheme: ReplicationScheme,
    rng: random.Random,
    first_rack: int,
) -> List[int]:
    """One full random layout with the primary copy in ``first_rack``."""
    sizes = scheme.rack_group_sizes()
    used_racks = [first_rack]
    nodes = random_nodes_in_rack(topology, rng, first_rack, 1)
    for group_size in sizes[1:]:
        rack = random_rack(topology, rng, exclude=used_racks, min_nodes=group_size)
        used_racks.append(rack)
        nodes.extend(random_nodes_in_rack(topology, rng, rack, group_size))
    return nodes
