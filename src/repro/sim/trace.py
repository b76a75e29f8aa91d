"""Simulation tracing: a structured event log for debugging and analysis.

Attach a :class:`Tracer` to a :class:`~repro.sim.netsim.Network` and every
completed transfer, inline or started, is recorded with start/end
timestamps, endpoints, size, and whether it crossed the core.  Traces
answer questions the aggregate counters cannot — "what was saturating
rack 3's uplink at t=200?" — and can be filtered, summarised, or dumped
as text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cluster.topology import NodeId
from repro.sim.engine import Event
from repro.sim.netsim import Flow, Network


@dataclass(frozen=True)
class TransferTrace:
    """One completed transfer."""

    src: NodeId
    dst: NodeId
    size: float
    start: float
    end: float
    cross_rack: bool

    @property
    def duration(self) -> float:
        """Wall-clock seconds (simulated) the transfer took, queueing
        included."""
        return self.end - self.start

    @property
    def effective_bandwidth(self) -> float:
        """Bytes/second achieved end to end (below link speed when the
        transfer queued)."""
        if self.duration == 0:
            return float("inf")
        return self.size / self.duration


class Tracer:
    """Records every transfer a network completes.

    Watches the network's one transfer start point, so inline
    (``yield from network.transfer``) and started
    (``network.start_transfer``) flows are both seen:

        >>> # tracer = Tracer.attach(network)
        >>> # ... run the simulation ...
        >>> # tracer.transfers_crossing_rack(3)

    Detach by calling :meth:`detach`.
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        self.records: List[TransferTrace] = []

    @classmethod
    def attach(cls, network: Network) -> "Tracer":
        """Create a tracer and start recording the network's transfers."""
        tracer = cls(network)
        network._watchers.append(tracer._watch)
        return tracer

    def detach(self) -> None:
        """Stop recording.  Idempotent."""
        watchers = self.network._watchers
        if self._watch in watchers:
            watchers.remove(self._watch)

    def _watch(self, flow: Flow) -> None:
        start = flow.sim.now
        waiters = flow.callbacks  # the list the kernel runs at completion

        def record(done: Event) -> None:
            if not done.failed:
                self.records.append(TransferTrace(
                    flow.src, flow.dst, flow.size, start, done.sim.now,
                    flow.cross_rack,
                ))
            elif len(waiters) == 1 and not done.defused:
                # Nobody else waits: surface it, as an untraced run would.
                raise done._exception  # noqa: SLF001

        waiters.append(record)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def between(self, start: float, end: float) -> List[TransferTrace]:
        """Transfers overlapping the window [start, end)."""
        return [r for r in self.records if r.start < end and r.end > start]

    def involving_node(self, node_id: NodeId) -> List[TransferTrace]:
        """Transfers with the node as source or destination."""
        return [r for r in self.records if node_id in (r.src, r.dst)]

    def transfers_crossing_rack(self, rack_id: int) -> List[TransferTrace]:
        """Cross-rack transfers entering or leaving one rack."""
        out = []
        for r in self.records:
            if not r.cross_rack:
                continue
            if self.network.rack_of(r.src) == rack_id or (
                self.network.rack_of(r.dst) == rack_id
            ):
                out.append(r)
        return out

    def bytes_by_rack_pair(self) -> Dict[Tuple, float]:
        """Cross-rack volume keyed by (source rack, destination rack)."""
        volumes: Dict[Tuple, float] = {}
        for r in self.records:
            if not r.cross_rack:
                continue
            key = (self.network.rack_of(r.src), self.network.rack_of(r.dst))
            volumes[key] = volumes.get(key, 0.0) + r.size
        return volumes

    def mean_effective_bandwidth(self) -> float:
        """Average achieved bandwidth over all recorded transfers.

        Raises:
            ValueError: With no records.
        """
        if not self.records:
            raise ValueError("no transfers recorded")
        finite = [
            r.effective_bandwidth
            for r in self.records
            if r.duration > 0
        ]
        if not finite:
            raise ValueError("all recorded transfers were instantaneous")
        return sum(finite) / len(finite)

    def format(self, limit: Optional[int] = None) -> str:
        """Human-readable dump of the first ``limit`` records."""
        lines = []
        for r in self.records[: limit if limit is not None else len(self.records)]:
            kind = "x-rack" if r.cross_rack else "local "
            lines.append(
                f"[{r.start:10.3f} - {r.end:10.3f}] {kind} "
                f"{r.src:>5} -> {r.dst:<5} {r.size / 1e6:8.1f} MB"
            )
        return "\n".join(lines)
