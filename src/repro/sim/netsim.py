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

import math
from dataclasses import dataclass
from typing import (
    Callable, Dict, Generator, Iterator, List, Optional, Set, Tuple,
)

from repro.cluster.topology import ClusterTopology, NodeId, RackId
from repro.sim.engine import Event, Simulator
from repro.sim.resources import MultiRequest, MultiResource


def _positive(bandwidth: float) -> float:
    """``bandwidth``, unless it is not positive (NaN is not): ValueError."""
    if not bandwidth > 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    return bandwidth


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
        _positive(self.read_bandwidth)
        _positive(self.write_bandwidth)


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

    ``transfer``, ``disk_read`` and ``disk_write`` are generators for use
    inside simulation processes via ``yield from``; ``start_transfer`` and
    ``start_disk_write`` begin the same work without a process:

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
        self.links = MultiResource()
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
        #: Transfers queued for links or holding them, in start order.
        self._inflight: Dict[Flow, None] = {}
        #: Called with every transfer as it starts (see ``_open``).
        self._watchers: List[Callable[[Flow], None]] = []
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
        bw = self.topology.intra_rack_bandwidth
        if bandwidth is not None:
            bw = _positive(bandwidth)
        node_id = self._next_external
        self._next_external -= 1
        self._externals[node_id] = name
        self._endpoints[node_id] = _Endpoint(node_id, None)
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
        receiver's ingress.  An id that is neither a node nor an external
        raises ``KeyError``.
        """
        if node_id not in self._endpoints:
            raise KeyError(f"no node {node_id}")
        if up is not None:
            self._node_up_bw[node_id] = _positive(up)
        if down is not None:
            self._node_down_bw[node_id] = _positive(down)

    def set_rack_bandwidth(
        self,
        rack_id: RackId,
        up: Optional[float] = None,
        down: Optional[float] = None,
    ) -> None:
        """Override one rack's core link bandwidths (bytes/second); an
        unknown ``rack_id`` raises ``KeyError``."""
        if rack_id not in range(self.topology.num_racks):
            raise KeyError(f"no rack {rack_id}")
        if up is not None:
            self._rack_up_bw[rack_id] = _positive(up)
        if down is not None:
            self._rack_down_bw[rack_id] = _positive(down)

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
        for flow in list(self._inflight):
            if flow._abort is None and node_id in (flow.src, flow.dst):
                # One hop per abort: ending the flow here would resume its
                # waiters inside this call, which they may re-enter.
                flow._abort = node_id
                self.sim.call_soon(flow._aborted)
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
    # Operations: inline (generators for ``yield from``) and started
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
            The transfer's :class:`Flow`, once.

        Raises:
            TransferAborted: When an endpoint is down at start, or dies
                (via :meth:`fail_endpoint`) while the transfer is queued
                for links or in flight.
        """
        flow = Flow(self, src, dst, size)
        self._open(flow, read_disk, write_disk)
        if not flow._over:  # else nothing to hold: an in-memory no-op
            try:
                yield flow
            finally:
                # An abort's traceback keeps this frame: naming the flow
                # here would close a cycle through the flow's exception.
                del flow

    def start_transfer(
        self,
        src: NodeId,
        dst: NodeId,
        size: float,
        read_disk: Optional[bool] = None,
        write_disk: Optional[bool] = None,
    ) -> "Flow":
        """:meth:`transfer` with no process waiting on it inline: returns
        the flow, an event that succeeds when the transfer is done or
        fails with what ``transfer`` would have raised."""
        flow = Flow(self, src, dst, size)
        self._start(flow, self._open, read_disk, write_disk)
        return flow

    def disk_read(self, node_id: NodeId, size: float) -> Generator:
        """Read ``size`` bytes from a node's local disk."""
        flow = Flow(self, node_id, node_id, size)
        self._open_disk(flow, write=False)
        yield flow

    def disk_write(self, node_id: NodeId, size: float) -> Generator:
        """Write ``size`` bytes to a node's local disk."""
        flow = Flow(self, node_id, node_id, size)
        self._open_disk(flow, write=True)
        yield flow

    def start_disk_write(self, node_id: NodeId, size: float) -> "Flow":
        """:meth:`disk_write` with no process waiting on it inline."""
        flow = Flow(self, node_id, node_id, size)
        self._start(flow, self._open_disk, True)
        return flow

    def inflight(self) -> Iterator[Tuple[NodeId, NodeId]]:
        """``(src, dst)`` of each transfer queued for or holding links."""
        return ((flow.src, flow.dst) for flow in list(self._inflight))

    def _start(
        self, flow: "Flow", open_flow: Callable, *args: Optional[bool]
    ) -> None:
        """``open_flow(flow, *args)`` now; an error fails the flow instead
        of raising, so it surfaces from ``Simulator.run`` if unwaited."""
        flow._inline = False
        try:
            open_flow(flow, *args)
        except Exception as exc:
            flow.fail(exc)

    def _open(
        self,
        flow: "Flow",
        read_disk: Optional[bool],
        write_disk: Optional[bool],
    ) -> None:
        """Check, route and claim one transfer: every transfer starts
        here, which is where :class:`~repro.sim.trace.Tracer` watches."""
        src, dst, size = flow.src, flow.dst, flow.size
        if not size > 0:
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
        for watch in self._watchers:
            watch(flow)

        # Every held resource's key, and the slowest one's bandwidth.
        source, sink = self._endpoints[src], self._endpoints[dst]
        keys: List[Tuple] = []
        bandwidth = math.inf
        if src != dst:
            topology = self.topology
            keys = [source.up, sink.down]
            bandwidth = self._node_up_bw.get(src, topology.intra_rack_bandwidth)
            other = self._node_down_bw.get(dst, topology.intra_rack_bandwidth)
            if other < bandwidth:
                bandwidth = other
            src_rack, dst_rack = source.rack, sink.rack
            # Externals (rack None) hang off the core.
            if src_rack is None or dst_rack is None or src_rack != dst_rack:
                flow.cross_rack = True
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
            flow._over = True
            flow._finish(None)
            return
        self._inflight[flow] = None
        flow._hold(keys, size / bandwidth)

    def _open_disk(self, flow: "Flow", write: bool) -> None:
        if self.disk is None:
            raise ValueError("disks are not modelled on this network")
        if not flow.size > 0:
            raise ValueError("size must be positive")
        bandwidth = (
            self.disk.write_bandwidth if write else self.disk.read_bandwidth
        )
        flow._hold([self._endpoints[flow.src].disk], flow.size / bandwidth)


class Flow(Event):
    """One link hold as kernel callbacks: the grant arms the hold's
    timeout, and the timeout frees the links and completes the flow in
    place, so a hold costs one kernel event (``docs/architecture.md``,
    Network).  An abort is one more: ``fail_endpoint``'s hop ends it.
    A disk read or write is a flow that is never in ``_inflight``: it is
    not a transfer, so it is neither aborted nor counted.
    """

    __slots__ = (
        "network", "src", "dst", "size", "cross_rack", "_claim",
        "_duration", "_inline", "_over", "_abort",
    )

    def __init__(
        self, network: Network, src: NodeId, dst: NodeId, size: float
    ) -> None:
        super().__init__(network.sim)
        self.network = network
        self.src, self.dst, self.size = src, dst, size
        self.cross_rack = False
        self._inline = True
        self._over = False  # completed, aborted or abandoned by its waiter
        self._abort: Optional[NodeId] = None  # the endpoint that died

    def _hold(self, keys: List[Tuple], duration: float) -> None:
        self._duration = duration
        self._claim = self.network.links.acquire(keys, self._granted)

    def _granted(self, __: MultiRequest) -> None:
        self.sim.timeout(self._duration).callbacks.append(self._held)

    def _held(self, __: Event) -> None:
        """The hold's timeout fired: free the links and complete."""
        if self._over or self._abort is not None:
            return  # abandoned, or the pending abort hop ends it
        network = self.network
        if self in network._inflight:  # a transfer, not a disk hold
            network.stats.record(self.size, self.cross_rack)
        self._end()
        self._finish(None)

    def _aborted(self, __: Event) -> None:
        """``fail_endpoint``'s hop: end the flow with the abort."""
        if not self._over:  # else its waiter abandoned it first
            self._end()
            self.network.stats.record_abort()
            self._finish(TransferAborted(self.src, self.dst, self._abort))

    def _abandon(self) -> None:
        """The waiting process was interrupted: an inline flow frees its
        links (or withdraws its claim); a later timeout or hop no-ops."""
        if self._inline and not self._over:
            self._end()

    def _end(self) -> None:
        """Free the links (or withdraw the claim); the flow is over."""
        self._over = True
        network = self.network
        network._inflight.pop(self, None)  # disk holds were never in it
        network.links.cancel(self._claim)

    def _finish(self, exc: Optional[BaseException]) -> None:
        if exc is not None and not self._inline:
            self.fail(exc)  # a failure nobody waits on surfaces from run
            return
        # Fired in place: every waiter resumes here, no hop.
        self._triggered = self._processed = True
        self._exception = exc
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)
