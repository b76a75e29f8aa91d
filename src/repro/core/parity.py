"""Encoding-side placement: encoder choice, replica retention, parity layout.

For a sealed stripe, the encoding operation (Section II-A) is:

1. an encoder node downloads one replica of each of the ``k`` data blocks;
2. it computes and uploads the ``n - k`` parity blocks;
3. one replica of each data block is retained, the rest deleted.

This module plans all three for both policies and reports the resulting
cross-rack traffic, which is what the simulator charges to the network.

* Under **EAR** the encoder lives in the core rack (zero cross-rack
  downloads) and the retention plan comes from the Figure 4 flow graph, so
  rack-level fault tolerance holds with no relocation.  When ``c > 1`` the
  planner reserves up to ``c - 1`` core-rack slots for parity blocks, which
  converts that many cross-rack parity uploads into intra-rack ones — the
  effect behind Figure 13(e).
* Under **RR** the encoder is a random node; the planner retains replicas as
  favourably as possible (smallest feasible per-rack concentration) and
  spreads parity over unused racks, but the layout may still violate the
  rack fault-tolerance requirement — those stripes are later repaired by the
  :mod:`repro.core.relocation` machinery.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster.block import BlockId, BlockStore
from repro.cluster.topology import ClusterTopology, NodeId, RackId
from repro.core.matching import RackMatching, retention_capacity
from repro.core.policy import PlacementError
from repro.core.stripe import Stripe
from repro.erasure.codec import CodeParams
from repro.sim.netsim import SourceUnavailable

#: Filter deciding whether one replica may serve as a download source
#: (an encode attempt's veto on down or corrupted copies).
SourceFilter = Callable[[BlockId, NodeId], bool]


@dataclass(frozen=True)
class EncodingPlan:
    """Complete plan for encoding one stripe.

    Attributes:
        stripe_id: The stripe being encoded.
        encoder_node: Node performing the encoding map task.
        retained: Data block -> node of its surviving replica.
        parity_nodes: One node per parity block, in stripe order.
        sources: Data block -> node it is downloaded from (step 1),
            chosen under the planning attempt's replica veto.
        cross_rack_downloads: ``sources`` outside the encoder's rack.
        cross_rack_uploads: Parity blocks written across racks (step 2).
    """

    stripe_id: int
    encoder_node: NodeId
    retained: Dict[BlockId, NodeId]
    parity_nodes: Tuple[NodeId, ...]
    sources: Dict[BlockId, NodeId]
    cross_rack_downloads: int
    cross_rack_uploads: int

    def all_nodes(self) -> List[NodeId]:
        """Nodes of the post-encoding stripe: retained data then parity."""
        return list(self.retained.values()) + list(self.parity_nodes)


def usable_replicas(
    block_store: BlockStore,
    block_id: BlockId,
    source_ok: Optional[SourceFilter] = None,
) -> Tuple[NodeId, ...]:
    """Replica holders of ``block_id`` that ``source_ok`` does not veto.

    Raises:
        PlacementError: When the block has no replicas at all (data loss).
        SourceUnavailable: When replicas exist but every one is vetoed —
            a transient condition retry loops are expected to outwait.
    """
    nodes = block_store.replica_nodes(block_id)
    if not nodes:
        raise PlacementError(f"block {block_id} has no replicas to encode from")
    if source_ok is None:
        return nodes
    usable = tuple(n for n in nodes if source_ok(block_id, n))
    if not usable:
        first = min(nodes)
        raise SourceUnavailable(first, first, first)
    return usable


def download_plan(
    topology: ClusterTopology,
    block_store: BlockStore,
    stripe: Stripe,
    encoder_node: NodeId,
    source_ok: Optional[SourceFilter] = None,
) -> Dict[BlockId, NodeId]:
    """Choose where the encoder fetches each data block from.

    Prefers a copy on the encoder itself, then one in the encoder's rack,
    then any copy (a cross-rack download).  ``source_ok`` vetoes individual
    replicas (down endpoints, corrupted copies); see
    :func:`usable_replicas` for what a fully vetoed block raises.
    """
    rack_of = topology.rack_of
    encoder_rack = rack_of(encoder_node)
    sources: Dict[BlockId, NodeId] = {}
    for block_id in stripe.block_ids:
        nodes = usable_replicas(block_store, block_id, source_ok)
        source = None
        for node in nodes:
            if node == encoder_node:
                source = node
                break
            if source is None and rack_of(node) == encoder_rack:
                source = node
        sources[block_id] = nodes[0] if source is None else source
    return sources


def count_cross_rack_downloads(
    topology: ClusterTopology, sources: Dict[BlockId, NodeId], encoder_node: NodeId
) -> int:
    """Data blocks whose chosen source sits in another rack."""
    rack_of = topology.rack_of
    encoder_rack = rack_of(encoder_node)
    return sum(1 for node in sources.values() if rack_of(node) != encoder_rack)


def _finish_plan(
    topology: ClusterTopology,
    block_store: BlockStore,
    stripe: Stripe,
    encoder_node: NodeId,
    retained: Dict[BlockId, NodeId],
    parity_nodes: List[NodeId],
    source_ok: Optional[SourceFilter],
) -> EncodingPlan:
    """Choose the download sources and count the cross-rack traffic.

    Runs *last*: a fully vetoed block raises ``SourceUnavailable`` from
    here, and the retry must find the shared rng stream where a successful
    plan leaves it — after the retention and parity draws.
    """
    sources = download_plan(
        topology, block_store, stripe, encoder_node, source_ok
    )
    rack_of = topology.rack_of
    encoder_rack = rack_of(encoder_node)
    return EncodingPlan(
        stripe_id=stripe.stripe_id,
        encoder_node=encoder_node,
        retained=retained,
        parity_nodes=tuple(parity_nodes),
        sources=sources,
        cross_rack_downloads=count_cross_rack_downloads(
            topology, sources, encoder_node
        ),
        cross_rack_uploads=sum(
            1 for node in parity_nodes if rack_of(node) != encoder_rack
        ),
    )


# ----------------------------------------------------------------------
# EAR planning
# ----------------------------------------------------------------------
def plan_ear_encoding(
    topology: ClusterTopology,
    block_store: BlockStore,
    stripe: Stripe,
    code: CodeParams,
    c: int = 1,
    rng: Optional[random.Random] = None,
    reserve_core_for_parity: bool = True,
    encoder_node: Optional[NodeId] = None,
    allow_foreign_encoder: bool = False,
    source_ok: Optional[SourceFilter] = None,
) -> EncodingPlan:
    """Plan encoding for an EAR-placed stripe.

    Args:
        topology: Cluster layout.
        block_store: Current replica locations.
        stripe: A sealed stripe with a core rack (and optional target racks).
        code: The ``(n, k)`` code.
        c: Per-rack block cap of the stripe after encoding.
        rng: Random source for node choices.
        reserve_core_for_parity: When True and ``c > 1``, try to keep up to
            ``min(c - 1, n - k)`` parity blocks in the core rack, turning
            those uploads intra-rack.  Falls back to smaller reservations
            (down to zero) whenever the retention matching would otherwise
            not exist.
        encoder_node: The node running the encoding map task; a random node
            of the core rack when omitted.  Must belong to the core rack —
            the paper's third HDFS modification pins encode maps there.
        allow_foreign_encoder: Permit an encoder outside the core rack (it
            then pays cross-rack downloads).  Exists for the pinning
            ablation; the paper's EAR never does this.
        source_ok: Veto on individual replicas as download sources.

    Returns:
        The encoding plan.  With a core-rack encoder and nothing vetoed
        ``cross_rack_downloads`` is 0 by construction (the EAR guarantee).

    Raises:
        ValueError: If ``c`` is not positive.
        PlacementError: If the stripe has no core rack, a degraded block
            has no replica left, or the encoder is outside the core rack.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    rng = rng if rng is not None else random.Random(0)
    if stripe.core_rack is None:
        raise PlacementError("EAR encoding requires a stripe with a core rack")
    layout = {bid: block_store.replica_nodes(bid) for bid in stripe.block_ids}

    max_reserve = min(c - 1, code.num_parity) if reserve_core_for_parity else 0
    matching: Dict[BlockId, NodeId] = {}
    for reserve in range(max_reserve, -1, -1):
        matching = RackMatching(
            topology.rack_of,
            retention_capacity(c, stripe.target_racks, stripe.core_rack, reserve),
        ).solve(layout)
        if len(matching) == len(layout):
            break
    degraded = len(matching) < len(layout)
    if degraded:
        # EAR placement guarantees a matching exists — unless failures have
        # since removed replicas.  Degrade to best-effort retention (like
        # RR): match what the flow allows, keep arbitrary survivors for the
        # rest, and let the PlacementMonitor flag any violation.
        matching = RackMatching(topology.rack_of, retention_capacity(c)).solve(
            layout
        )
        for block_id, nodes in layout.items():
            if block_id in matching:
                continue
            if not nodes:
                raise PlacementError(
                    f"block {block_id} of stripe {stripe.stripe_id} has no "
                    "replicas left to encode from"
                )
            matching[block_id] = rng.choice(list(nodes))

    if encoder_node is None:
        encoder_node = rng.choice(topology.nodes_in_rack(stripe.core_rack))
    elif (
        topology.rack_of(encoder_node) != stripe.core_rack
        and not allow_foreign_encoder
    ):
        raise PlacementError(
            f"encoder node {encoder_node} is outside core rack "
            f"{stripe.core_rack}"
        )
    parity_nodes = _place_parity(
        topology=topology,
        stripe=stripe,
        code=code,
        c=c,
        retained=matching,
        rng=rng,
        prefer_racks=[stripe.core_rack],
        admissible_racks=stripe.target_racks if not degraded else None,
        allow_overflow=degraded,
    )
    return _finish_plan(
        topology, block_store, stripe, encoder_node, matching, parity_nodes,
        source_ok,
    )


# ----------------------------------------------------------------------
# RR planning
# ----------------------------------------------------------------------
def plan_rr_encoding(
    topology: ClusterTopology,
    block_store: BlockStore,
    stripe: Stripe,
    code: CodeParams,
    rng: Optional[random.Random] = None,
    encoder_node: Optional[NodeId] = None,
    source_ok: Optional[SourceFilter] = None,
) -> EncodingPlan:
    """Plan encoding for an RR-placed stripe.

    The encoder is a uniformly random node (Section II-A: "The CFS randomly
    selects a node to perform the encoding operation").  Retention aims for
    the *most spread* feasible plan: the planner finds the smallest per-rack
    cap ``c*`` for which a matching exists and uses that matching, which is
    the most favourable treatment RR can receive (the paper's example shows
    even the best retention can violate fault tolerance).  Parity blocks go
    to randomly chosen racks not yet holding stripe blocks, falling back to
    least-loaded racks when fewer than ``n - k`` empty racks remain.
    """
    rng = rng if rng is not None else random.Random(0)
    layout = {bid: block_store.replica_nodes(bid) for bid in stripe.block_ids}
    if encoder_node is None:
        encoder_node = rng.randrange(topology.num_nodes)

    matching: Dict[BlockId, NodeId] = {}
    for cap in range(1, len(layout) + 1):
        matching = RackMatching(topology.rack_of, retention_capacity(cap)).solve(
            layout
        )
        if len(matching) == len(layout):
            break
    else:
        # Even ignoring racks (cap = every block), the blocks cannot occupy
        # distinct nodes (RR gives no such guarantee).  Retain what that
        # maximum matching does and fall back to arbitrary replicas for the
        # rest — real HDFS keeps the data regardless and lets the
        # PlacementMonitor flag the stripe.
        for block_id, nodes in layout.items():
            if block_id in matching:
                continue
            if not nodes:
                raise PlacementError(
                    f"block {block_id} of stripe {stripe.stripe_id} has no "
                    "replicas"
                )
            matching[block_id] = rng.choice(list(nodes))

    parity_nodes = _place_parity(
        topology=topology,
        stripe=stripe,
        code=code,
        c=1,
        retained=matching,
        rng=rng,
        prefer_racks=[],
        admissible_racks=None,
        allow_overflow=True,
    )
    return _finish_plan(
        topology, block_store, stripe, encoder_node, matching, parity_nodes,
        source_ok,
    )


# ----------------------------------------------------------------------
# Shared parity placement
# ----------------------------------------------------------------------
def _place_parity(
    topology: ClusterTopology,
    stripe: Stripe,
    code: CodeParams,
    c: int,
    retained: Dict[BlockId, NodeId],
    rng: random.Random,
    prefer_racks: Sequence[RackId],
    admissible_racks: Optional[Sequence[RackId]],
    allow_overflow: bool = False,
) -> List[NodeId]:
    """Choose one node per parity block.

    Preference order: ``prefer_racks`` first (the EAR core rack), then racks
    already below the cap, chosen uniformly at random.  All chosen nodes are
    distinct from each other and from the retained data nodes (the stripe
    must occupy ``n`` distinct nodes for node-level fault tolerance).

    Args:
        allow_overflow: When True (RR), racks above the cap may be used once
            no compliant rack remains — RR has no feasibility guarantee and
            relocation will repair the stripe later.

    Raises:
        PlacementError: When no compliant rack remains and overflow is not
            allowed.
    """
    rack_of = topology.rack_of
    sizes = topology.rack_sizes
    # Stripe blocks per rack, indexed by rack id.
    usage = [0] * len(sizes)
    for node in retained.values():
        usage[rack_of(node)] += 1
    used_nodes: Set[NodeId] = set(retained.values())
    # Distinct stripe nodes per rack (a fallback retention may keep two
    # blocks on one node), and the racks they fill.
    taken = [0] * len(sizes)
    for node in used_nodes:
        taken[rack_of(node)] += 1
    full = {rack for rack, count in enumerate(taken) if count == sizes[rack]}

    if admissible_racks is None:
        admissible = list(topology.rack_ids())
    else:
        admissible = list(admissible_racks)

    chosen: List[NodeId] = []
    for __ in range(code.num_parity):
        rack = _pick_parity_rack(
            admissible, usage, c, prefer_racks, full, rng, allow_overflow,
        )
        candidates = [
            n for n in topology.nodes_in_rack(rack) if n not in used_nodes
        ]
        node = rng.choice(candidates)
        used_nodes.add(node)
        usage[rack] += 1
        taken[rack] += 1
        if taken[rack] == sizes[rack]:
            full.add(rack)
        chosen.append(node)
    return chosen


class EncodingPlanner:
    """Policy-agnostic interface for producing :class:`EncodingPlan` objects.

    Subclasses bind the policy-specific planning function with its
    parameters so the encoding pipeline (map tasks, encoding processes) can
    plan stripes uniformly.
    """

    def plan(
        self,
        stripe: Stripe,
        encoder_node: Optional[NodeId] = None,
        allow_foreign_encoder: Optional[bool] = None,
        source_ok: Optional[SourceFilter] = None,
    ) -> EncodingPlan:
        """Plan one sealed stripe; ``encoder_node`` pins the map's node.

        ``allow_foreign_encoder`` overrides the planner's default for this
        one stripe — graceful degradation uses it to accept a cross-rack
        encoder when an EAR stripe's core rack is entirely down.
        ``source_ok`` is the calling attempt's replica veto; the plan's
        ``sources`` are chosen under it and the encoder downloads those.
        """
        raise NotImplementedError

    def eligible_encoder_nodes(self, stripe: Stripe) -> List[NodeId]:
        """Nodes allowed to run the stripe's encoding map task."""
        raise NotImplementedError


class EARPlanner(EncodingPlanner):
    """Planner for EAR-placed stripes (core-rack encoders, flow matching)."""

    def __init__(
        self,
        topology: ClusterTopology,
        block_store: BlockStore,
        code: CodeParams,
        c: int = 1,
        rng: Optional[random.Random] = None,
        reserve_core_for_parity: bool = True,
        allow_foreign_encoder: bool = False,
    ) -> None:
        self.topology = topology
        self.block_store = block_store
        self.code = code
        self.c = c
        self.rng = rng if rng is not None else random.Random(0)
        self.reserve_core_for_parity = reserve_core_for_parity
        self.allow_foreign_encoder = allow_foreign_encoder

    def plan(
        self,
        stripe: Stripe,
        encoder_node: Optional[NodeId] = None,
        allow_foreign_encoder: Optional[bool] = None,
        source_ok: Optional[SourceFilter] = None,
    ) -> EncodingPlan:
        if allow_foreign_encoder is None:
            allow_foreign_encoder = self.allow_foreign_encoder
        return plan_ear_encoding(
            self.topology,
            self.block_store,
            stripe,
            self.code,
            c=self.c,
            rng=self.rng,
            reserve_core_for_parity=self.reserve_core_for_parity,
            encoder_node=encoder_node,
            allow_foreign_encoder=allow_foreign_encoder,
            source_ok=source_ok,
        )

    def eligible_encoder_nodes(self, stripe: Stripe) -> List[NodeId]:
        if stripe.core_rack is None:
            raise PlacementError("EAR stripes carry a core rack")
        return list(self.topology.nodes_in_rack(stripe.core_rack))


class RRPlanner(EncodingPlanner):
    """Planner for RR-placed stripes (random encoders, best-effort spread)."""

    def __init__(
        self,
        topology: ClusterTopology,
        block_store: BlockStore,
        code: CodeParams,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.topology = topology
        self.block_store = block_store
        self.code = code
        self.rng = rng if rng is not None else random.Random(0)

    def plan(
        self,
        stripe: Stripe,
        encoder_node: Optional[NodeId] = None,
        allow_foreign_encoder: Optional[bool] = None,
        source_ok: Optional[SourceFilter] = None,
    ) -> EncodingPlan:
        # RR encoders are random nodes already; "foreign" is meaningless.
        return plan_rr_encoding(
            self.topology,
            self.block_store,
            stripe,
            self.code,
            rng=self.rng,
            encoder_node=encoder_node,
            source_ok=source_ok,
        )

    def eligible_encoder_nodes(self, stripe: Stripe) -> List[NodeId]:
        return list(self.topology.node_ids())


def _pick_parity_rack(
    admissible: Sequence[RackId],
    usage: List[int],
    c: int,
    prefer_racks: Sequence[RackId],
    full: Set[RackId],
    rng: random.Random,
    allow_overflow: bool,
) -> RackId:
    """The rack of the next parity block; ``usage`` counts the stripe's
    blocks per rack id and ``full`` holds the racks with no node left that
    is free of the stripe."""
    for rack in prefer_racks:
        if rack in admissible and usage[rack] < c and rack not in full:
            return rack
    compliant = [r for r in admissible if usage[r] < c and r not in full]
    if compliant:
        # Among compliant racks prefer entirely empty ones: this is the
        # paper's "put n-k parity blocks in n-k other racks" behaviour at
        # c = 1 and keeps the stripe's rack count minimal otherwise.
        empty = [r for r in compliant if usage[r] == 0]
        return rng.choice(empty or compliant)
    if allow_overflow:
        overflow = [r for r in admissible if r not in full]
        if overflow:
            least = min(usage[r] for r in overflow)
            return rng.choice([r for r in overflow if usage[r] == least])
    raise PlacementError("no rack can accept another parity block")
