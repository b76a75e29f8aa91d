"""Post-encoding availability repair: PlacementMonitor and BlockMover.

Facebook's HDFS periodically checks every erasure-coded stripe against the
rack-level fault-tolerance requirement (the ``PlacementMonitor`` module) and
relocates blocks when the requirement is violated (the ``BlockMover``
module) — Section II-B.  Relocation is exactly what EAR avoids: it costs
cross-rack traffic and leaves a vulnerability window until it completes.

This module reproduces both components so the simulator and the analyses can
quantify RR's relocation burden.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster.block import BlockId, BlockStore
from repro.cluster.failure import stripe_rack_fault_tolerance
from repro.cluster.topology import ClusterTopology, NodeId, RackId
from repro.core.policy import PlacementError
from repro.core.stripe import Stripe
from repro.erasure.codec import CodeParams


@dataclass(frozen=True)
class BlockMove:
    """One relocation: a block's single copy moves between nodes."""

    block_id: BlockId
    src_node: NodeId
    dst_node: NodeId

    def is_cross_rack(self, topology: ClusterTopology) -> bool:
        """True when the move crosses the network core."""
        return topology.is_cross_rack(self.src_node, self.dst_node)


@dataclass(frozen=True)
class RelocationPlan:
    """The moves required to restore a stripe's rack fault tolerance.

    Attributes:
        stripe_id: The violating stripe.
        moves: Relocations, in execution order.
        cross_rack_moves: How many moves cross the core (each costs a block's
            worth of scarce cross-rack bandwidth).
    """

    stripe_id: int
    moves: Tuple[BlockMove, ...]
    cross_rack_moves: int

    @property
    def is_empty(self) -> bool:
        """True when the stripe already satisfies the requirement."""
        return not self.moves


class PlacementMonitor:
    """Detects encoded stripes violating rack-level fault tolerance.

    Args:
        topology: Cluster layout.
        code: The ``(n, k)`` code protecting the stripes.
        required_rack_failures: Rack failures each stripe must survive
            (``n - k`` in Facebook's deployment).
    """

    def __init__(
        self,
        topology: ClusterTopology,
        code: CodeParams,
        required_rack_failures: Optional[int] = None,
    ) -> None:
        self.topology = topology
        self.code = code
        self.required_rack_failures = (
            code.num_parity if required_rack_failures is None
            else required_rack_failures
        )
        if not 0 <= self.required_rack_failures <= code.num_parity:
            raise ValueError(
                "required rack failures must lie in [0, n - k]"
            )

    def stripe_nodes(self, block_store: BlockStore, stripe: Stripe) -> List[NodeId]:
        """The node of every (single-copy) block of an encoded stripe.

        Raises:
            PlacementError: If any block still has several replicas — the
                monitor only inspects encoded stripes.
        """
        nodes: List[NodeId] = []
        for block_id in stripe.all_block_ids():
            replicas = block_store.replica_nodes(block_id)
            if len(replicas) != 1:
                raise PlacementError(
                    f"block {block_id} of stripe {stripe.stripe_id} has "
                    f"{len(replicas)} replicas; encode first"
                )
            nodes.append(replicas[0])
        return nodes

    def is_violating(self, block_store: BlockStore, stripe: Stripe) -> bool:
        """True when the stripe tolerates fewer rack failures than required."""
        nodes = self.stripe_nodes(block_store, stripe)
        tolerance = stripe_rack_fault_tolerance(self.topology, nodes, self.code.k)
        return tolerance < self.required_rack_failures

    def scan(
        self, block_store: BlockStore, stripes: Sequence[Stripe]
    ) -> List[Stripe]:
        """All stripes among ``stripes`` that need relocation."""
        return [s for s in stripes if self.is_violating(block_store, s)]


class BlockMover:
    """Plans and executes the relocations repairing a violating stripe.

    The mover empties over-full racks: while some rack holds more blocks
    than the per-rack cap implied by the requirement, it moves one block
    from the fullest rack to a random node of a rack below the cap.

    Args:
        topology: Cluster layout.
        code: The stripe's code parameters.
        required_rack_failures: Rack failures each stripe must survive.
        rng: Random source for destination choices.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        code: CodeParams,
        required_rack_failures: Optional[int] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.topology = topology
        self.code = code
        self.required_rack_failures = (
            code.num_parity if required_rack_failures is None
            else required_rack_failures
        )
        self.rng = rng if rng is not None else random.Random(0)
        self.monitor = PlacementMonitor(topology, code, self.required_rack_failures)

    def rack_cap(self) -> int:
        """Largest per-rack block count meeting the requirement.

        Surviving ``t`` rack failures requires every ``t`` racks to hold at
        most ``n - k`` blocks in total; with an even adversary the binding
        constraint is ``cap = floor((n - k) / t)`` blocks per rack (and any
        spread when ``t = 0``).
        """
        if self.required_rack_failures == 0:
            return self.code.n
        return max(1, self.code.num_parity // self.required_rack_failures)

    def plan(self, block_store: BlockStore, stripe: Stripe) -> RelocationPlan:
        """Compute (without executing) the moves repairing ``stripe``."""
        nodes = self.monitor.stripe_nodes(block_store, stripe)
        block_ids = stripe.all_block_ids()
        cap = self.rack_cap()

        rack_of = self.topology.rack_of
        rack_members: Dict[RackId, List[int]] = {}
        for index, node in enumerate(nodes):
            rack_members.setdefault(rack_of(node), []).append(index)

        occupied: Set[NodeId] = set(nodes)
        moves: List[BlockMove] = []
        while True:
            over = {
                rack: members
                for rack, members in rack_members.items()
                if len(members) > cap
            }
            if not over:
                break
            rack, members = max(over.items(), key=lambda item: len(item[1]))
            index = members[-1]
            dst_rack = self._destination_rack(
                rack_members, cap, exclude=rack, occupied=occupied
            )
            dst_node = self.rng.choice([
                n
                for n in self.topology.nodes_in_rack(dst_rack)
                if n not in occupied
            ])
            moves.append(BlockMove(block_ids[index], nodes[index], dst_node))
            occupied.discard(nodes[index])
            occupied.add(dst_node)
            members.pop()
            nodes[index] = dst_node
            rack_members.setdefault(dst_rack, []).append(index)

        cross = sum(1 for m in moves if m.is_cross_rack(self.topology))
        return RelocationPlan(stripe.stripe_id, tuple(moves), cross)

    def execute(self, block_store: BlockStore, plan: RelocationPlan) -> None:
        """Apply a relocation plan to the block store."""
        for move in plan.moves:
            block_store.move_replica(move.block_id, move.src_node, move.dst_node)

    def repair(self, block_store: BlockStore, stripe: Stripe) -> RelocationPlan:
        """Plan and immediately execute the repair of one stripe."""
        plan = self.plan(block_store, stripe)
        self.execute(block_store, plan)
        return plan

    def _destination_rack(
        self,
        rack_members: Dict[RackId, List[int]],
        cap: int,
        exclude: RackId,
        occupied: Set[NodeId],
    ) -> RackId:
        """A random rack below the cap with a node the stripe does not
        occupy, preferring racks that hold none of its blocks."""
        topology = self.topology
        below = [
            rack
            for rack in topology.rack_ids()
            if rack != exclude
            and len(rack_members.get(rack, [])) < cap
            and any(n not in occupied for n in topology.nodes_in_rack(rack))
        ]
        if not below:
            raise PlacementError(
                "no rack below the cap has a free node; requirement is "
                "unsatisfiable"
            )
        empty = [r for r in below if not rack_members.get(r)]
        return self.rng.choice(empty or below)
