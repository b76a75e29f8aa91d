"""Placement-policy interface and replica layout schemes.

A *replication scheme* describes how the ``r`` replicas of one block spread
over racks; a *placement policy* (RR, preliminary EAR, EAR) decides the
concrete racks and nodes.  The NameNode model
(:mod:`repro.hdfs.namenode`) records the policy's decisions in the
:class:`~repro.cluster.block.BlockStore`.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.cluster.block import BlockId, BlockStore
from repro.cluster.topology import ClusterTopology, NodeId, RackId


class PlacementError(RuntimeError):
    """Raised when a policy cannot produce a valid layout."""


@dataclass(frozen=True)
class ReplicationScheme:
    """How one block's replicas spread across racks.

    Attributes:
        replicas: Total copies per block, ``r``.
        racks: Number of distinct racks the copies span.

    The first rack receives exactly one copy (the primary replica — the copy
    EAR pins to the core rack); the remaining ``r - 1`` copies are spread as
    evenly as possible over the other ``racks - 1`` racks.  HDFS's default
    3-way layout is ``ReplicationScheme(3, 2)``: one copy in the first rack,
    two copies on distinct nodes of a second rack.
    """

    replicas: int
    racks: int

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError("need at least one replica")
        if not 1 <= self.racks <= self.replicas:
            raise ValueError(
                f"racks must lie in [1, replicas], got racks={self.racks}, "
                f"replicas={self.replicas}"
            )
        if self.replicas > 1 and self.racks < 2:
            raise ValueError("multi-replica schemes must span at least two racks")

    def rack_group_sizes(self) -> Tuple[int, ...]:
        """Copies per rack: primary rack first, then the remaining racks.

        Example:
            >>> ReplicationScheme(3, 2).rack_group_sizes()
            (1, 2)
            >>> ReplicationScheme(4, 4).rack_group_sizes()
            (1, 1, 1, 1)
        """
        if self.replicas == 1:
            return (1,)
        remaining_copies = self.replicas - 1
        remaining_racks = self.racks - 1
        base, extra = divmod(remaining_copies, remaining_racks)
        sizes = [base + 1] * extra + [base] * (remaining_racks - extra)
        return (1, *sizes)


#: HDFS's default 3-way layout: primary rack + two copies in a second rack.
TWO_RACKS = ReplicationScheme(3, 2)

#: One rack per replica (used in Experiment B.2(f)'s replica sweep).
DISTINCT_RACKS = ReplicationScheme(3, 3)


class PlacementDecision(NamedTuple):
    """The outcome of placing one block: an immutable, slotted value.

    Attributes:
        block_id: The placed block.
        node_ids: Chosen nodes; ``node_ids[0]`` holds the primary replica.
        core_rack: The stripe's core rack (EAR policies only).
        stripe_id: Stripe the block was assigned to, when known at placement
            time (EAR assigns eagerly; RR stripes are formed later by the
            RaidNode).
        attempts: Number of random layouts drawn before one satisfied the
            policy's constraints (1 for RR; Theorem 1 bounds EAR's value).
    """

    block_id: BlockId
    node_ids: Tuple[NodeId, ...]
    core_rack: Optional[RackId] = None
    stripe_id: Optional[int] = None
    attempts: int = 1


class PlacementPolicy(ABC):
    """Chooses replica locations for newly written blocks.

    Args:
        topology: The cluster to place into.
        scheme: Replica spread description (default: HDFS 3-way, two racks).
        rng: Random source; pass a seeded ``random.Random`` for
            reproducibility.

    **Draw contract.**  The helpers below read three tables built once
    per policy -- the scheme's rack group sizes, each rack's node tuple
    and, per group size, the racks with at least that many nodes -- and
    make exactly these rng calls, in this order: a rack draw is one
    ``rng.choice`` over the eligible racks outside ``exclude`` (in rack
    id order); a one-copy group is one ``rng.choice`` over its rack's
    nodes, the same single ``_randbelow`` that ``rng.sample(nodes, 1)``
    makes; a group of two or more is one ``rng.sample`` of the rack's
    nodes.  ``tests/core/reference_draws.py`` keeps the helpers that
    rebuilt these lists on every draw, and the tests check that both
    return the same nodes and leave the same rng state.
    """

    #: Short machine-readable policy name ("rr", "ear", ...).
    name = "abstract"

    def __init__(
        self,
        topology: ClusterTopology,
        scheme: ReplicationScheme = TWO_RACKS,
        rng: Optional[random.Random] = None,
    ) -> None:
        if topology.num_racks < scheme.racks:
            raise ValueError(
                f"scheme spans {scheme.racks} racks but cluster has only "
                f"{topology.num_racks}"
            )
        self.topology = topology
        self.scheme = scheme
        self.rng = rng if rng is not None else random.Random(0)
        self._group_sizes = scheme.rack_group_sizes()
        # Rack id -> its node tuple; a dict, so an unknown (or negative)
        # rack id raises KeyError instead of wrapping around.
        self._rack_nodes: Dict[RackId, Tuple[NodeId, ...]] = {
            rack: topology.nodes_in_rack(rack) for rack in topology.rack_ids()
        }
        # Group size -> the racks able to host such a group, in id order.
        self._eligible_racks: Dict[int, Tuple[RackId, ...]] = {
            size: self._racks_with(size) for size in {1, *self._group_sizes}
        }

    @abstractmethod
    def place_block(
        self, block_id: BlockId, writer_node: Optional[NodeId] = None,
        join_stripe: bool = True,
    ) -> PlacementDecision:
        """Choose the replica nodes for a new block.

        Args:
            block_id: Identifier of the block being written.
            writer_node: Node issuing the write, when known.  HDFS places the
                first replica on the writer; policies may use this hint.
            join_stripe: Add the block to its stripe in the policy's
                pre-encoding store, when it keeps one.  The NameNode
                passes ``False``: its one ``allocate_block`` record adds
                the block to the stripe along with the block itself.

        Returns:
            The placement decision; callers record it in the block store.
        """

    # ------------------------------------------------------------------
    # Shared random-selection helpers
    # ------------------------------------------------------------------
    def _racks_with(self, min_nodes: int) -> Tuple[RackId, ...]:
        """The racks with at least ``min_nodes`` nodes, in id order."""
        return tuple(
            rack_id
            for rack_id, size in enumerate(self.topology.rack_sizes)
            if size >= min_nodes
        )

    def _random_rack(
        self, exclude: Iterable[RackId] = (), min_nodes: int = 1
    ) -> RackId:
        """A uniformly random rack outside ``exclude`` with enough nodes.

        Heterogeneous clusters may contain racks too small to host a
        multi-copy replica group; those are never eligible for it.
        """
        candidates = self._eligible_racks.get(min_nodes)
        if candidates is None:
            candidates = self._racks_with(min_nodes)
        excluded = set(exclude)
        if excluded:
            candidates = [r for r in candidates if r not in excluded]
        if not candidates:
            raise PlacementError(
                f"no eligible rack with at least {min_nodes} node(s) remains"
            )
        return self.rng.choice(candidates)

    def _random_nodes_in_rack(self, rack_id: RackId, count: int) -> List[NodeId]:
        """``count`` distinct random nodes of one rack."""
        candidates = self._rack_nodes[rack_id]
        if len(candidates) < count:
            raise PlacementError(
                f"rack {rack_id} has only {len(candidates)} eligible nodes, "
                f"need {count}"
            )
        if count == 1:
            return [self.rng.choice(candidates)]
        return self.rng.sample(candidates, count)

    def _draw_layout(self, first_rack: RackId) -> List[NodeId]:
        """Draw one full random layout with the primary copy in ``first_rack``.

        Follows the scheme's rack group sizes: one copy on a random node of
        ``first_rack``; each further group lands on distinct random nodes of
        a distinct random rack.
        """
        nodes = [self.rng.choice(self._rack_nodes[first_rack])]
        used_racks = [first_rack]
        for group_size in self._group_sizes[1:]:
            rack = self._random_rack(used_racks, group_size)
            used_racks.append(rack)
            nodes += self._random_nodes_in_rack(rack, group_size)
        return nodes

    def __repr__(self) -> str:
        return f"{type(self).__name__}(scheme={self.scheme})"
