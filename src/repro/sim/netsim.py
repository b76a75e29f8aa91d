"""The Topology module: link and disk resources, and timed transfers.

Follows the paper's simulator design (Section V-B): "the Topology module
simulates the CFS topology and manages both cross-rack and intra-rack link
resources.  To complete a data transmission request, the Topology module
holds the corresponding resources for some duration of the request subject
to the specified link bandwidth."

Resource model:

* every node has a full-duplex NIC — an egress link and an ingress link,
  each at the topology's intra-rack bandwidth (derate-able per node, which
  is how the Iperf UDP cross-traffic of Experiment A.1 is modelled);
* every rack has an uplink and a downlink to the network core, each at the
  topology's cross-rack bandwidth; the core itself is non-blocking;
* optionally every node has a single disk with separate read and write
  bandwidths.  The paper's testbed experiments are disk-aware (the EAR
  encoder reads its k blocks locally, so its disk is the binding resource),
  while the paper's large-scale simulator — like ours in that mode — models
  links only.

A transfer atomically holds every resource along its path (source disk,
source egress, rack uplink, rack downlink, destination ingress, destination
disk) for ``size / bottleneck_bandwidth`` seconds, where the bottleneck is
the slowest held resource.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional, Set, Tuple

from repro.cluster.topology import ClusterTopology, NodeId, RackId
from repro.sim.engine import Event, Simulator
from repro.sim.resources import MultiResource


class TransferAborted(RuntimeError):
    """A transfer failed because an endpoint died (or was unreachable).

    Raised out of :meth:`Network.transfer` — immediately when an endpoint
    is already down at start, or mid-flight when
    :meth:`Network.fail_endpoint` kills an endpoint the transfer touches.

    Attributes:
        src: Transfer source node.
        dst: Transfer destination node.
        endpoint: The endpoint whose death aborted the transfer.
    """

    def __init__(self, src: NodeId, dst: NodeId, endpoint: NodeId) -> None:
        super().__init__(
            f"transfer {src} -> {dst} aborted: endpoint {endpoint} is down"
        )
        self.src = src
        self.dst = dst
        self.endpoint = endpoint


class SourceUnavailable(TransferAborted):
    """No live source currently serves the data (transient, retryable).

    A subclass of :class:`TransferAborted` so retry loops treat "every
    replica is on a down node right now" exactly like a mid-flight abort:
    back off and re-plan once endpoints return.
    """


@dataclass(frozen=True)
class DiskModel:
    """Per-node disk characteristics (bytes/second).

    The defaults approximate the testbed's Seagate ST1000DM003 under
    sequential HDFS I/O (with some page-cache help on recently written
    blocks): reads faster than the 1 Gb/s network, writes a bit slower, so
    the network stays the per-flow bottleneck (as the paper validated)
    while a node reading many blocks locally is disk-bound.
    """

    read_bandwidth: float = 200e6
    write_bandwidth: float = 150e6

    def __post_init__(self) -> None:
        if self.read_bandwidth <= 0 or self.write_bandwidth <= 0:
            raise ValueError("disk bandwidths must be positive")


@dataclass(slots=True)
class TransferStats:
    """Aggregate traffic accounting maintained by the network.

    Slotted: one instance lives per network, but storms inspect the
    counters on the hot path and a fixed layout keeps access direct.
    """

    transfers: int = 0
    bytes_total: float = 0.0
    cross_rack_transfers: int = 0
    bytes_cross_rack: float = 0.0
    aborted: int = 0

    def record(self, size: float, cross_rack: bool) -> None:
        """Account one completed transfer."""
        self.transfers += 1
        self.bytes_total += size
        if cross_rack:
            self.cross_rack_transfers += 1
            self.bytes_cross_rack += size

    def record_abort(self) -> None:
        """Account one transfer that died before completing."""
        self.aborted += 1


class _Endpoint:
    """One endpoint's rack and resource keys, built once per network.

    ``Network.transfer`` names up to six resources per call; handing the
    arbiter these interned keys instead of fresh ``("nup", node)`` tuples
    keeps the per-transfer path allocation-light at O(nodes) memory.
    """

    __slots__ = ("rack", "up", "down", "rack_up", "rack_down", "disk")

    def __init__(self, node_id: NodeId, rack: Optional[RackId]) -> None:
        #: ``None`` for externals, which hang off the core.
        self.rack = rack
        self.up = ("nup", node_id)
        self.down = ("ndown", node_id)
        self.rack_up = ("rup", rack)
        self.rack_down = ("rdown", rack)
        self.disk = ("disk", node_id)


class Network:
    """Timed data transfers over a cluster topology.

    Args:
        sim: The simulation kernel.
        topology: Rack/node layout and default bandwidths.
        disk: When given, transfers also hold source/destination disks and
            local reads/writes are possible; when ``None`` disks are not
            modelled (the paper's large-scale simulator mode).

    All public operations are generators meant to run inside simulation
    processes via ``yield from``:

        >>> # yield from network.transfer(src=3, dst=17, size=64 * 2**20)
    """

    def __init__(
        self,
        sim: Simulator,
        topology: ClusterTopology,
        disk: Optional[DiskModel] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.disk = disk
        self.links = MultiResource(sim)
        self.stats = TransferStats()
        self._node_up_bw: Dict[NodeId, float] = {}
        self._node_down_bw: Dict[NodeId, float] = {}
        self._rack_up_bw: Dict[RackId, float] = {}
        self._rack_down_bw: Dict[RackId, float] = {}
        self._externals: Dict[int, str] = {}
        self._next_external = -1
        self._endpoints: Dict[NodeId, _Endpoint] = {
            node_id: _Endpoint(node_id, topology.rack_of(node_id))
            for node_id in topology.node_ids()
        }
        self._down_nodes: Set[NodeId] = set()
        self._inflight: Dict[int, Tuple[NodeId, NodeId, Event]] = {}
        self._transfer_seq = itertools.count()
        self._state_listeners: List[Callable[[NodeId, bool], None]] = []

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def add_external(self, name: str, bandwidth: Optional[float] = None) -> int:
        """Register an off-cluster endpoint (e.g. the testbed's master).

        Externals attach straight to the network core: transfers to or from
        them traverse the peer's rack links but no rack link of their own.

        Returns:
            A negative pseudo node id usable as a transfer endpoint.
        """
        node_id = self._next_external
        self._next_external -= 1
        self._externals[node_id] = name
        self._endpoints[node_id] = _Endpoint(node_id, None)
        bw = self.topology.intra_rack_bandwidth if bandwidth is None else bandwidth
        self._node_up_bw[node_id] = bw
        self._node_down_bw[node_id] = bw
        return node_id

    def set_node_bandwidth(
        self,
        node_id: NodeId,
        up: Optional[float] = None,
        down: Optional[float] = None,
    ) -> None:
        """Override one node's NIC bandwidths (bytes/second).

        Used to model persistent cross-traffic: Experiment A.1's UDP streams
        reduce the effective bandwidth of the sender's egress and the
        receiver's ingress.
        """
        if up is not None:
            if up <= 0:
                raise ValueError("bandwidth must be positive")
            self._node_up_bw[node_id] = up
        if down is not None:
            if down <= 0:
                raise ValueError("bandwidth must be positive")
            self._node_down_bw[node_id] = down

    def set_rack_bandwidth(
        self,
        rack_id: RackId,
        up: Optional[float] = None,
        down: Optional[float] = None,
    ) -> None:
        """Override one rack's core link bandwidths (bytes/second)."""
        if up is not None:
            if up <= 0:
                raise ValueError("bandwidth must be positive")
            self._rack_up_bw[rack_id] = up
        if down is not None:
            if down <= 0:
                raise ValueError("bandwidth must be positive")
            self._rack_down_bw[rack_id] = down

    # ------------------------------------------------------------------
    # Endpoint liveness (the chaos layer's hook)
    # ------------------------------------------------------------------
    def is_up(self, node_id: NodeId) -> bool:
        """True while the endpoint accepts and serves transfers."""
        return node_id not in self._down_nodes

    @property
    def down_nodes(self) -> Set[NodeId]:
        """Endpoints currently down (a copy)."""
        return set(self._down_nodes)

    def on_endpoint_change(
        self, listener: Callable[[NodeId, bool], None]
    ) -> None:
        """Register ``listener(node_id, is_up)`` for liveness transitions.

        The JobTracker uses this to re-dispatch queued tasks when a node
        returns; schedulers and monitors may subscribe freely.
        """
        self._state_listeners.append(listener)

    def fail_endpoint(self, node_id: NodeId) -> int:
        """Take an endpoint down, aborting every in-flight transfer it
        touches.

        Safe to call for both transient outages (pair with
        :meth:`restore_endpoint`) and permanent failures.  Idempotent.

        Returns:
            Number of in-flight transfers aborted.
        """
        if node_id in self._down_nodes:
            return 0
        self._down_nodes.add(node_id)
        aborted = 0
        for src, dst, abort in list(self._inflight.values()):
            if node_id in (src, dst) and not abort.triggered:
                abort.succeed(node_id)
                aborted += 1
        for listener in list(self._state_listeners):
            listener(node_id, False)
        return aborted

    def restore_endpoint(self, node_id: NodeId) -> None:
        """Bring a downed endpoint back.  Idempotent."""
        if node_id not in self._down_nodes:
            return
        self._down_nodes.discard(node_id)
        for listener in list(self._state_listeners):
            listener(node_id, True)

    # ------------------------------------------------------------------
    # Bandwidth lookups
    # ------------------------------------------------------------------
    def node_up_bandwidth(self, node_id: NodeId) -> float:
        """Effective egress bandwidth of a node's NIC."""
        return self._node_up_bw.get(node_id, self.topology.intra_rack_bandwidth)

    def node_down_bandwidth(self, node_id: NodeId) -> float:
        """Effective ingress bandwidth of a node's NIC."""
        return self._node_down_bw.get(node_id, self.topology.intra_rack_bandwidth)

    def rack_up_bandwidth(self, rack_id: RackId) -> float:
        """Effective uplink bandwidth of a rack."""
        return self._rack_up_bw.get(rack_id, self.topology.cross_rack_bandwidth)

    def rack_down_bandwidth(self, rack_id: RackId) -> float:
        """Effective downlink bandwidth of a rack."""
        return self._rack_down_bw.get(rack_id, self.topology.cross_rack_bandwidth)

    def rack_of(self, node_id: NodeId) -> Optional[RackId]:
        """Rack of a node, or ``None`` for external endpoints."""
        return self._endpoints[node_id].rack

    def is_cross_rack(self, src: NodeId, dst: NodeId) -> bool:
        """True when a transfer between the endpoints traverses the core."""
        if src == dst:
            return False
        src_rack, dst_rack = self.rack_of(src), self.rack_of(dst)
        # Externals (rack None) hang off the core.
        return src_rack is None or dst_rack is None or src_rack != dst_rack

    # ------------------------------------------------------------------
    # Operations (generators for use inside processes)
    # ------------------------------------------------------------------
    def transfer(
        self,
        src: NodeId,
        dst: NodeId,
        size: float,
        read_disk: Optional[bool] = None,
        write_disk: Optional[bool] = None,
    ) -> Generator:
        """Move ``size`` bytes from ``src`` to ``dst``.

        Local transfers (``src == dst``) touch only the disk (a block read
        into the encoding task, say).  ``read_disk``/``write_disk`` default
        to whether disks are modelled at all.

        Yields:
            Simulation events; completes after the transfer's duration.

        Raises:
            TransferAborted: When an endpoint is down at start, or dies
                (via :meth:`fail_endpoint`) while the transfer is queued
                for links or in flight.
        """
        if size <= 0:
            raise ValueError("transfer size must be positive")
        for endpoint in (src, dst):
            if endpoint in self._down_nodes:
                self.stats.record_abort()
                raise TransferAborted(src, dst, endpoint)
        disk = self.disk
        use_read = disk is not None if read_disk is None else read_disk
        use_write = disk is not None if write_disk is None else write_disk
        if disk is None and (use_read or use_write):
            raise ValueError("disks are not modelled on this network")

        # Every held resource's key, and the slowest one's bandwidth.
        source, sink = self._endpoints[src], self._endpoints[dst]
        keys: List[Tuple] = []
        bandwidth = math.inf
        cross_rack = False
        if src != dst:
            topology = self.topology
            keys = [source.up, sink.down]
            bandwidth = self._node_up_bw.get(src, topology.intra_rack_bandwidth)
            other = self._node_down_bw.get(dst, topology.intra_rack_bandwidth)
            if other < bandwidth:
                bandwidth = other
            src_rack, dst_rack = source.rack, sink.rack
            # Externals (rack None) hang off the core.
            cross_rack = (
                src_rack is None or dst_rack is None or src_rack != dst_rack
            )
            if cross_rack:
                if src_rack is not None:
                    keys.append(source.rack_up)
                    other = self._rack_up_bw.get(
                        src_rack, topology.cross_rack_bandwidth
                    )
                    if other < bandwidth:
                        bandwidth = other
                if dst_rack is not None:
                    keys.append(sink.rack_down)
                    other = self._rack_down_bw.get(
                        dst_rack, topology.cross_rack_bandwidth
                    )
                    if other < bandwidth:
                        bandwidth = other
        if use_read and src not in self._externals:
            keys.append(source.disk)
            if disk.read_bandwidth < bandwidth:
                bandwidth = disk.read_bandwidth
        if use_write and dst not in self._externals:
            keys.append(sink.disk)
            if disk.write_bandwidth < bandwidth:
                bandwidth = disk.write_bandwidth
        if not keys:
            return  # nothing to hold: an in-memory no-op

        duration = size / bandwidth
        abort = self.sim.event()
        token = next(self._transfer_seq)
        self._inflight[token] = (src, dst, abort)
        grant = self.links.acquire(keys)
        granted = False
        try:
            yield self.sim.any_of([grant, abort])
            if abort.triggered:
                self.stats.record_abort()
                raise TransferAborted(src, dst, abort.value)
            granted = True
            yield self.sim.any_of([self.sim.timeout(duration), abort])
            if abort.triggered:
                self.stats.record_abort()
                raise TransferAborted(src, dst, abort.value)
        finally:
            del self._inflight[token]
            if granted:
                self.links.release(grant)
            else:
                self.links.cancel(grant)
        self.stats.record(size, cross_rack)

    def disk_read(self, node_id: NodeId, size: float) -> Generator:
        """Read ``size`` bytes from a node's local disk."""
        yield from self._disk_op(node_id, size, write=False)

    def disk_write(self, node_id: NodeId, size: float) -> Generator:
        """Write ``size`` bytes to a node's local disk."""
        yield from self._disk_op(node_id, size, write=True)

    def _disk_op(self, node_id: NodeId, size: float, write: bool) -> Generator:
        if self.disk is None:
            raise ValueError("disks are not modelled on this network")
        if size <= 0:
            raise ValueError("size must be positive")
        bandwidth = (
            self.disk.write_bandwidth if write else self.disk.read_bandwidth
        )
        grant = self.links.acquire((self._endpoints[node_id].disk,))
        yield grant
        try:
            yield self.sim.timeout(size / bandwidth)
        finally:
            self.links.release(grant)
