"""Topology-aware pipeline planning over the replica placement.

A pipeline visits one replica holder per data block; the order decides
how much of the partial-combination traffic crosses rack boundaries.
:func:`plan_pipeline` groups the ``k`` columns by rack with a greedy
set cover (each chosen rack is one that covers the most still-unassigned
columns among its replica holders), chains the groups smallest-first so
the pipeline *ends* in the replica-densest rack, and orders columns in
stripe order inside a group.  Consequences:

* an EAR-placed stripe (every block has a core-rack replica) collapses
  to a single group — the entire pipeline runs inside the core rack and
  the partial combination never touches a core link;
* under RR the chain crosses racks only between groups — at most
  ``(#groups - 1)`` cross-rack hop transfers instead of up to ``k``
  cross-rack downloads;
* the tail (last hop) sits where the replicas concentrate, which is the
  same neighbourhood the commit plan prefers for parity, keeping the
  final parity deliveries short.

The commit half of the plan — which replicas to retain, where parity
lands — is delegated unchanged to the policy's
:class:`~repro.core.parity.EncodingPlanner` with the tail pinned as the
encoder node, so a pipelined stripe journals and retains exactly like a
download-encoded one.

Planning is a pure function of the (topology, placement, veto filter)
inputs: every tie breaks on sorted ids, no RNG involved, so a re-plan
after a failure differs only where the failure forced it to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cluster.block import BlockId, BlockStore
from repro.cluster.topology import ClusterTopology, NodeId, RackId
from repro.core.parity import (
    EncodingPlan,
    EncodingPlanner,
    SourceFilter,
    usable_replicas,
)
from repro.core.stripe import Stripe


@dataclass(frozen=True)
class PipelineHop:
    """One pipeline stage: a node folding its block into the combination.

    Attributes:
        column: Stripe column (0..k-1) this hop contributes.
        block_id: The data block whose replica the hop holds.
        node: The replica holder performing the fold.
    """

    column: int
    block_id: BlockId
    node: NodeId


@dataclass(frozen=True)
class PipelinePlan:
    """A complete per-stripe pipeline: hop chain plus commit plan.

    Attributes:
        stripe_id: The stripe being encoded.
        hops: The ``k`` stages in pipeline order.
        commit: The policy planner's retention/parity plan with the tail
            pinned as encoder node (what ``record_encoding`` applies).
        cross_rack_hops: Consecutive hop pairs in different racks — the
            partial-combination transfers charged to core links.
    """

    stripe_id: int
    hops: Tuple[PipelineHop, ...]
    commit: EncodingPlan
    cross_rack_hops: int

    @property
    def tail_node(self) -> NodeId:
        """The last hop's node — holds the finished parity."""
        return self.hops[-1].node

    @property
    def cross_rack_deliveries(self) -> int:
        """Parity nodes outside the tail's rack (the commit's uploads)."""
        return self.commit.cross_rack_uploads

    def signature(self) -> Tuple[Tuple[int, NodeId], ...]:
        """Route identity, for detecting that a re-plan changed course."""
        return tuple((hop.column, hop.node) for hop in self.hops)


def _rack_groups(
    topology: ClusterTopology,
    candidates: Dict[int, List[NodeId]],
) -> List[Tuple[RackId, List[int]]]:
    """Greedy rack set cover, chained smallest group first.

    Each round picks the rack whose replica holders cover the most
    still-unassigned columns (ties: lowest rack id).  The cover is then
    ordered ascending by group size (ties again on rack id) so the
    densest rack — a single group covering all ``k`` for EAR stripes —
    hosts the pipeline tail.
    """
    unassigned = set(candidates)
    groups: List[Tuple[RackId, List[int]]] = []
    while unassigned:
        coverage: Dict[RackId, List[int]] = {}
        for column in sorted(unassigned):
            for rack in sorted(
                {topology.rack_of(n) for n in candidates[column]}
            ):
                coverage.setdefault(rack, []).append(column)
        best = min(sorted(coverage), key=lambda r: (-len(coverage[r]), r))
        columns = coverage[best]
        groups.append((best, columns))
        unassigned.difference_update(columns)
    groups.sort(key=lambda group: (len(group[1]), group[0]))
    return groups


def _assign_nodes(
    topology: ClusterTopology,
    candidates: Dict[int, List[NodeId]],
    groups: List[Tuple[RackId, List[int]]],
    stripe: Stripe,
) -> List[PipelineHop]:
    """One node per column, preferring nodes not already in the chain.

    Within a group columns keep stripe order; each picks the lowest-id
    candidate in the group's rack that no earlier hop uses, falling back
    to the lowest-id in-rack candidate (a repeated node is legal — the
    hop-to-hop transfer between same-node stages is free).
    """
    hops: List[PipelineHop] = []
    used: set = set()
    for rack, columns in groups:
        for column in columns:
            in_rack = [
                n for n in candidates[column]
                if topology.rack_of(n) == rack
            ]
            fresh = [n for n in in_rack if n not in used]
            node = (fresh or in_rack)[0]
            used.add(node)
            hops.append(PipelineHop(
                column=column, block_id=stripe.block_ids[column], node=node,
            ))
    return hops


def plan_pipeline(
    topology: ClusterTopology,
    store: BlockStore,
    stripe: Stripe,
    planner: EncodingPlanner,
    source_ok: Optional[SourceFilter] = None,
) -> PipelinePlan:
    """Plan one stripe's encoding pipeline over its current replicas.

    Args:
        topology: Cluster layout.
        store: Current replica locations.
        stripe: A sealed stripe.
        planner: The policy's encoding planner; produces the commit half
            with the pipeline tail pinned as encoder node (foreign
            encoders allowed — the tail follows the replicas, not the
            policy's encoder preference).
        source_ok: Optional replica veto (down or corrupted copies);
            re-plans pass current liveness here to route around damage.

    Returns:
        The pipeline plan.

    Raises:
        PlacementError: When a block has no replicas left (data loss).
        SourceUnavailable: When every replica of some block is vetoed.
    """
    # Usable replica holders per stripe column, lowest node id first.
    candidates = {
        column: sorted(usable_replicas(store, block_id, source_ok))
        for column, block_id in enumerate(stripe.block_ids)
    }
    groups = _rack_groups(topology, candidates)
    hops = _assign_nodes(topology, candidates, groups, stripe)
    tail = hops[-1].node
    commit = planner.plan(stripe, encoder_node=tail,
                          allow_foreign_encoder=True)
    cross_hops = sum(
        1
        for previous, current in zip(hops, hops[1:])
        if topology.rack_of(previous.node) != topology.rack_of(current.node)
    )
    return PipelinePlan(
        stripe_id=stripe.stripe_id,
        hops=tuple(hops),
        commit=commit,
        cross_rack_hops=cross_hops,
    )
