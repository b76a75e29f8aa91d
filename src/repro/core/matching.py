"""Retention matching on the Figure 4(b) network, without building it.

A stripe's layout admits a retention plan (Section III-B) iff the network
S -> block -> node -> rack -> T has a flow covering every block: one
replica kept per block, at most one block per node, at most a rack's
capacity per rack (:func:`retention_capacity`: ``c``, less the core rack's
parity reservation, and 0 outside the target racks of Section III-D).
EAR's redraw loop grows one :class:`RackMatching` per open stripe with
:meth:`RackMatching.add`; the encoding planners :meth:`RackMatching.solve`
a sealed stripe's current layout.  Its residual graph fits in plain dicts: a block's out-edges are its replicas; a
node has exactly one residual out-edge, to the block it holds or, while it
holds none, to its rack; a rack's are T while it has room, plus its nodes
that hold a block.  :class:`RackMatching` runs Dinic's phases on it.

**Visiting order.**  Dinic visits a vertex's edges in insertion order, and
that order alone decides *which* maximum matching comes out.  The matcher
visits them as a network built block by block would hold them (S->B, then
per admissible replica B->N, N->R when the node is new, R->T when the rack
is new): blocks in order, a block's replicas in order, a rack's nodes in
first-seen order.  ``tests/core/test_flow_differential.py`` checks every
matching, and every state a session passes through, against that explicit
network (``tests/core/reference_flow.py``).

Counted work goes to :data:`repro.sim.metrics.PERF`: ``maxflow.bfs_builds``
once per level BFS, ``maxflow.augmentations`` once per unit routed.
"""

from __future__ import annotations

from typing import (
    Callable, Collection, Dict, Hashable, Iterable, List, Mapping, Optional,
)

from repro.cluster.topology import NodeId, RackId
from repro.sim.metrics import PERF

Block = Hashable


def retention_capacity(
    c: int,
    target_racks: Optional[Collection[RackId]] = None,
    core_rack: Optional[RackId] = None,
    core_reserve: int = 0,
) -> Callable[[RackId], int]:
    """Rack id -> blocks of one stripe the rack may retain after encoding.

    ``c`` per rack, except ``c - core_reserve`` in ``core_rack`` (the
    slots kept for parity, Figure 13(e)) and 0 outside ``target_racks``
    when those are given.  EAR's placement and ``plan_ear_encoding`` both
    build their capacity here, so they agree on what a stripe may retain.

    Example:
        >>> capacity = retention_capacity(2, target_racks=(0, 1),
        ...                               core_rack=0, core_reserve=1)
        >>> capacity(0), capacity(1), capacity(2)
        (1, 2, 0)
    """
    if c <= 0:
        raise ValueError("c must be positive")
    if not 0 <= core_reserve < c:
        raise ValueError(f"core_reserve must be in [0, c={c})")
    core = c - core_reserve
    if target_racks is None:
        return lambda rack: core if rack == core_rack else c
    targets = frozenset(target_racks)
    return lambda rack: (
        (core if rack == core_rack else c) if rack in targets else 0
    )


class RackMatching:
    """A stripe's retention matching, grown block by block or solved whole.

    Args:
        rack_of: Node id -> rack id.
        capacity: Rack id -> blocks of the stripe the rack may retain.
            Replicas in a rack of capacity 0 can never be retained and are
            dropped on arrival.

    Example:
        >>> rack_of = {0: 0, 1: 0, 2: 1, 3: 1}.__getitem__
        >>> matching = RackMatching(rack_of, capacity=lambda rack: 1)
        >>> matching.add("a", [0, 2]), matching.add("b", [1, 3])
        (True, True)
        >>> matching.add("c", [1])           # rack 0 already retains "a"
        False
        >>> RackMatching(rack_of, lambda rack: 1).solve({"x": [0, 2], "y": [1]})
        {'x': 2, 'y': 1}
    """

    def __init__(
        self,
        rack_of: Callable[[NodeId], RackId],
        capacity: Callable[[RackId], int],
    ) -> None:
        self._rack_of = rack_of
        self._capacity = capacity
        self._replicas: Dict[Block, List[NodeId]] = {}  # admissible only
        self._place: Dict[Block, NodeId] = {}  # block -> node retaining it
        self._holder: Dict[NodeId, Block] = {}  # node -> block it retains
        self._rack: Dict[NodeId, RackId] = {}  # every admissible node seen
        self._members: Dict[RackId, List[NodeId]] = {}  # first seen first
        self._room: Dict[RackId, int] = {}  # capacity not yet retained

    def add(self, block: Block, replicas: Iterable[NodeId]) -> bool:
        """Keep ``block`` iff every block added so far can still retain a
        replica with it (EAR's acceptance test, Section III-B).

        Takes a free replica in a rack with room when there is one;
        otherwise one level BFS and one search from ``block``.  A failed
        search changes no flow, so a rejection only forgets the nodes the
        block introduced.  Raises ``ValueError`` if ``block`` was already
        kept: registering it again would corrupt the matching.
        """
        if block in self._replicas:
            raise ValueError(f"block {block!r} was already placed")
        introduced = self._register(block, replicas)
        if block in self._place or self._phase([block]):
            return True
        del self._replicas[block]
        for node in reversed(introduced):
            self._members[self._rack.pop(node)].pop()
        return False

    def solve(
        self, layout: Mapping[Block, Iterable[NodeId]]
    ) -> Dict[Block, NodeId]:
        """A maximum matching of the layout's blocks, in layout order.

        Registering the blocks in order is Dinic's first blocking flow from
        zero; its later phases then route what is left.
        """
        for block, replicas in layout.items():
            self._register(block, replicas)
        place = self._place
        if len(place) < len(layout):
            while self._phase([block for block in layout if block not in place]):
                pass
        return {block: place[block] for block in layout if block in place}

    # ------------------------------------------------------------------
    def _register(
        self, block: Block, replicas: Iterable[NodeId]
    ) -> List[NodeId]:
        """Record ``block``'s admissible replicas and route it over the
        first that is free in a rack with room -- the path S->B->N->R->T
        Dinic's search would find first.  Returns the nodes seen here for
        the first time."""
        rack, members, room, holder = (
            self._rack, self._members, self._room, self._holder
        )
        rack_of, capacity_of = self._rack_of, self._capacity
        admissible: List[NodeId] = []
        introduced: List[NodeId] = []
        served = False
        for node in replicas:
            rack_id = rack.get(node)
            if rack_id is None:
                rack_id = rack_of(node)  # validates the node id
                if rack_id not in room:
                    capacity = capacity_of(rack_id)
                    if capacity <= 0:
                        continue
                    room[rack_id] = capacity
                    members[rack_id] = []
                rack[node] = rack_id
                members[rack_id].append(node)
                introduced.append(node)
            admissible.append(node)
            if not served and node not in holder and room[rack_id] > 0:
                served = True
                room[rack_id] -= 1
                holder[node] = block
                self._place[block] = node
        self._replicas[block] = admissible
        if served:
            PERF.bump("maxflow.augmentations")
        return introduced

    def _levels(self, free: List[Block]) -> Optional[tuple]:
        """BFS distances of blocks, nodes and racks from S, and the sink's;
        ``None`` when no augmenting path is left.  Blocks and racks sit at
        odd levels, nodes at even ones; the search stops at the sink's."""
        PERF.bump("maxflow.bfs_builds")
        replicas, holder, rack = self._replicas, self._holder, self._rack
        members, room = self._members, self._room
        block_level = dict.fromkeys(free, 1)
        node_level: Dict[NodeId, int] = {}
        rack_level: Dict[RackId, int] = {}
        blocks, racks, depth = list(free), [], 1
        while blocks or racks:
            for rack_id in racks:
                if room[rack_id] > 0:
                    return block_level, node_level, rack_level, depth + 1
            reached: List[NodeId] = []
            for block in blocks:
                for node in replicas[block]:
                    if node not in node_level:
                        node_level[node] = depth + 1
                        reached.append(node)
            for rack_id in racks:
                for node in members[rack_id]:
                    if node in holder and node not in node_level:
                        node_level[node] = depth + 1
                        reached.append(node)
            depth += 2
            blocks, racks = [], []
            for node in reached:
                held = holder.get(node)
                if held is None:
                    rack_id = rack[node]
                    if rack_id not in rack_level:
                        rack_level[rack_id] = depth
                        racks.append(rack_id)
                elif held not in block_level:
                    block_level[held] = depth
                    blocks.append(held)
        return None

    def _phase(self, free: List[Block]) -> int:
        """One Dinic phase for the unmatched ``free`` blocks: a level BFS,
        then a blocking flow searched in visiting order; returns the units
        routed.

        Entering a block or node spends its level: succeed or dead-end,
        every residual edge it is left with points back down the levels,
        so a rescan finds what Dinic's current-arc pointer would.  A rack
        just below the sink routes to T while it has room (its nodes would
        sit at the sink's level, where nothing goes on); a rack further
        down offers the nodes holding a block, first seen first.
        """
        levels = self._levels(free)
        if levels is None:
            return 0
        block_level, node_level, rack_level, sink = levels
        replicas, place, holder = self._replicas, self._place, self._holder
        rack, members, room = self._rack, self._members, self._room

        def from_block(block: Block, level: int) -> bool:
            for node in replicas[block]:
                if node_level.get(node) == level + 1 and from_node(node, level + 1):
                    place[block] = node
                    holder[node] = block
                    return True
            return False

        def from_node(node: NodeId, level: int) -> bool:
            del node_level[node]
            held = holder.get(node)
            if held is None:
                rack_id = rack[node]
                return rack_level.get(rack_id) == level + 1 and from_rack(
                    rack_id, level + 1
                )
            if block_level.get(held) != level + 1:
                return False
            del block_level[held]
            return from_block(held, level + 1)

        def from_rack(rack_id: RackId, level: int) -> bool:
            if level + 1 == sink:
                if room[rack_id] > 0:
                    room[rack_id] -= 1
                    return True
                return False
            for node in members[rack_id]:
                if (
                    node in holder
                    and node_level.get(node) == level + 1
                    and from_node(node, level + 1)
                ):
                    del holder[node]
                    return True
            return False

        routed = sum(from_block(block, 1) for block in free)
        PERF.bump("maxflow.augmentations", routed)
        return routed
