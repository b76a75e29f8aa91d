"""Cluster topology: racks, nodes, and the switch hierarchy of Figure 1.

The paper's CFS architecture groups storage nodes into racks.  Nodes within a
rack share a top-of-rack switch; racks are joined by a network core whose
bandwidth is scarce and often over-subscribed.  ``ClusterTopology`` is the
single source of truth for that layout and is consumed by the placement
policies (:mod:`repro.core`) and by the network simulator
(:mod:`repro.sim.netsim`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

NodeId = int
RackId = int

#: Default link speed used throughout the paper's evaluation (1 Gb/s),
#: expressed in bytes per second.
GIGABIT_PER_SECOND_BYTES = 1e9 / 8

#: Default HDFS block size (64 MB) used in all paper experiments.
DEFAULT_BLOCK_SIZE = 64 * 1024 * 1024


@dataclass(frozen=True)
class Node:
    """A storage node (a DataNode in HDFS terms).

    Attributes:
        node_id: Globally unique identifier.
        rack_id: Identifier of the rack housing this node.
        name: Human-readable hostname, e.g. ``"rack3/node7"``.
    """

    node_id: NodeId
    rack_id: RackId
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Rack:
    """A rack of nodes behind one top-of-rack switch.

    Attributes:
        rack_id: Globally unique identifier.
        node_ids: Identifiers of the nodes in this rack, in creation order.
    """

    rack_id: RackId
    node_ids: tuple

    def __len__(self) -> int:
        return len(self.node_ids)

    def __str__(self) -> str:
        return f"rack{self.rack_id}"


class ClusterTopology:
    """Immutable description of a CFS cluster's racks, nodes, and links.

    Args:
        nodes_per_rack: Number of nodes in each rack.  Either a single int
            (homogeneous racks) or a sequence giving each rack's size.
        num_racks: Number of racks; required when ``nodes_per_rack`` is an
            int, ignored otherwise.
        intra_rack_bandwidth: Top-of-rack link speed in bytes/second.
        cross_rack_bandwidth: Rack uplink (to the network core) speed in
            bytes/second.  The paper treats cross-rack bandwidth as the
            bottleneck; over-subscription is modelled by setting this lower
            than ``intra_rack_bandwidth`` times the rack size.

    Example:
        >>> topo = ClusterTopology(nodes_per_rack=20, num_racks=20)
        >>> topo.num_nodes
        400
        >>> topo.rack_of(25)
        1
    """

    def __init__(
        self,
        nodes_per_rack,
        num_racks: Optional[int] = None,
        intra_rack_bandwidth: float = GIGABIT_PER_SECOND_BYTES,
        cross_rack_bandwidth: float = GIGABIT_PER_SECOND_BYTES,
    ) -> None:
        if isinstance(nodes_per_rack, int):
            if num_racks is None:
                raise ValueError("num_racks is required when nodes_per_rack is an int")
            if nodes_per_rack <= 0 or num_racks <= 0:
                raise ValueError("rack and node counts must be positive")
            sizes: List[int] = [nodes_per_rack] * num_racks
        else:
            sizes = list(nodes_per_rack)
            if not sizes or any(s <= 0 for s in sizes):
                raise ValueError("every rack must contain at least one node")
            if num_racks is not None and num_racks != len(sizes):
                raise ValueError("num_racks disagrees with the explicit rack sizes")
        if not intra_rack_bandwidth > 0 or not cross_rack_bandwidth > 0:
            raise ValueError("bandwidths must be positive")

        self.intra_rack_bandwidth = float(intra_rack_bandwidth)
        self.cross_rack_bandwidth = float(cross_rack_bandwidth)

        self._nodes: List[Node] = []
        self._racks: List[Rack] = []
        next_node = 0
        for rack_id, size in enumerate(sizes):
            ids = []
            for __ in range(size):
                node = Node(next_node, rack_id, f"rack{rack_id}/node{next_node}")
                self._nodes.append(node)
                ids.append(next_node)
                next_node += 1
            self._racks.append(Rack(rack_id, tuple(ids)))
        # The cluster is immutable, so the two lookups the placement loop
        # makes per drawn replica are tables built once: node id -> rack id,
        # and rack id -> node count.
        #: ``rack_of(node_id)``: the id of the rack that houses ``node_id``.
        #: A bound ``dict.__getitem__``, so one C call that raises
        #: ``KeyError`` for an unknown id; a negative id is unknown too,
        #: where a bare tuple index would wrap -1 to the last node.
        self.rack_of: Callable[[NodeId], RackId] = {
            node.node_id: node.rack_id for node in self._nodes
        }.__getitem__
        #: Number of nodes in each rack, indexed by rack id.
        self.rack_sizes: Tuple[int, ...] = tuple(sizes)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Total number of storage nodes in the cluster."""
        return len(self._nodes)

    @property
    def num_racks(self) -> int:
        """Total number of racks in the cluster."""
        return len(self._racks)

    @property
    def nodes(self) -> Sequence[Node]:
        """All nodes, indexed by node id."""
        return tuple(self._nodes)

    @property
    def racks(self) -> Sequence[Rack]:
        """All racks, indexed by rack id."""
        return tuple(self._racks)

    def node(self, node_id: NodeId) -> Node:
        """Return the node with the given id."""
        return self._nodes[self._check_node(node_id)]

    def rack(self, rack_id: RackId) -> Rack:
        """Return the rack with the given id."""
        return self._racks[self._check_rack(rack_id)]

    def nodes_in_rack(self, rack_id: RackId) -> Sequence[NodeId]:
        """Return the node ids living in ``rack_id``."""
        return self._racks[self._check_rack(rack_id)].node_ids

    def rack_ids(self) -> Iterator[RackId]:
        """Iterate over all rack ids."""
        return iter(range(self.num_racks))

    def node_ids(self) -> Iterator[NodeId]:
        """Iterate over all node ids."""
        return iter(range(self.num_nodes))

    def same_rack(self, a: NodeId, b: NodeId) -> bool:
        """True when both nodes share a top-of-rack switch."""
        return self.rack_of(a) == self.rack_of(b)

    def is_cross_rack(self, src: NodeId, dst: NodeId) -> bool:
        """True when a transfer from ``src`` to ``dst`` crosses the core."""
        return not self.same_rack(src, dst)

    # ------------------------------------------------------------------
    # Convenience constructors mirroring the paper's two deployments
    # ------------------------------------------------------------------
    @classmethod
    def testbed(cls, num_racks: int = 12, bandwidth: float = GIGABIT_PER_SECOND_BYTES):
        """The 13-machine testbed of Section V-A.

        One master (not modelled: it stores no data) plus 12 slaves, each
        slave placed in its own rack, all behind one 1 Gb/s switch.
        """
        return cls(
            nodes_per_rack=1,
            num_racks=num_racks,
            intra_rack_bandwidth=bandwidth,
            cross_rack_bandwidth=bandwidth,
        )

    @classmethod
    def large_scale(
        cls,
        num_racks: int = 20,
        nodes_per_rack: int = 20,
        bandwidth: float = GIGABIT_PER_SECOND_BYTES,
    ):
        """The simulated 400-node CFS of Section V-B (20 racks x 20 nodes)."""
        return cls(
            nodes_per_rack=nodes_per_rack,
            num_racks=num_racks,
            intra_rack_bandwidth=bandwidth,
            cross_rack_bandwidth=bandwidth,
        )

    # ------------------------------------------------------------------
    # Internal validation helpers
    # ------------------------------------------------------------------
    def _check_node(self, node_id: NodeId) -> NodeId:
        if not 0 <= node_id < len(self._nodes):
            raise KeyError(f"unknown node id {node_id}")
        return node_id

    def _check_rack(self, rack_id: RackId) -> RackId:
        if not 0 <= rack_id < len(self._racks):
            raise KeyError(f"unknown rack id {rack_id}")
        return rack_id

    def __repr__(self) -> str:
        return (
            f"ClusterTopology(num_racks={self.num_racks}, "
            f"num_nodes={self.num_nodes})"
        )
