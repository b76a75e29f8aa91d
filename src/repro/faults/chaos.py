"""Chaos schedule and injector: scripted transient faults as processes.

The chaos layer stresses the encoding/repair pipelines the way a real
cluster would: endpoints flap and come back with their data intact,
whole racks drop off the core for a while, individual NICs degrade into
stragglers, and blocks silently rot on disk.  Faults are *transient*
(state is restored) — permanent failures with metadata loss stay the
:class:`~repro.hdfs.failures.FailureInjector`'s job.

Schedules are plain data (sorted :class:`ChaosEvent` lists), so a drill
can be replayed bit-identically: every random choice is drawn from an
injected seeded rng, and the injector itself is deterministic given the
schedule.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Generator, List, Optional, Sequence, Tuple

from repro.cluster.block import BlockId
from repro.cluster.topology import ClusterTopology, NodeId, RackId
from repro.sim.engine import Simulator
from repro.sim.metrics import OUTAGE, FaultMetrics
from repro.sim.netsim import Network

#: Chaos event kinds.
NODE_FLAP = "node_flap"
RACK_OUTAGE = "rack_outage"
DEGRADE_NODE = "degrade_node"
CORRUPT_BLOCK = "corrupt_block"

KINDS = (NODE_FLAP, RACK_OUTAGE, DEGRADE_NODE, CORRUPT_BLOCK)


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled fault.

    Attributes:
        time: Simulation time the fault strikes.
        kind: One of :data:`KINDS`.
        target: Node id (flap/degrade), rack id (outage), or block id
            (corruption).
        duration: How long a transient fault lasts before restoration
            (ignored for corruption, which persists until scrubbed).
        factor: Bandwidth multiplier in ``(0, 1]`` for degradations.
    """

    time: float
    kind: str
    target: int
    duration: float = 0.0
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown chaos kind {self.kind!r}")
        if self.time < 0:
            raise ValueError("event time cannot be negative")
        if self.kind in (NODE_FLAP, RACK_OUTAGE, DEGRADE_NODE):
            if self.duration <= 0:
                raise ValueError(f"{self.kind} needs a positive duration")
        if self.kind == DEGRADE_NODE and not 0 < self.factor <= 1:
            raise ValueError("degrade factor must lie in (0, 1]")


@dataclass
class ChaosSchedule:
    """An ordered fault script.

    Attributes:
        events: The faults, kept sorted by strike time.
    """

    events: List[ChaosEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.events = sorted(self.events, key=lambda e: (e.time, e.kind, e.target))

    def add(self, event: ChaosEvent) -> None:
        """Insert one event, keeping the script sorted."""
        self.events.append(event)
        self.events.sort(key=lambda e: (e.time, e.kind, e.target))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @classmethod
    def random_schedule(
        cls,
        topology: ClusterTopology,
        rng: random.Random,
        horizon: float,
        num_flaps: int = 4,
        flap_duration: Tuple[float, float] = (5.0, 30.0),
        num_rack_outages: int = 1,
        outage_duration: Tuple[float, float] = (20.0, 60.0),
        num_degradations: int = 2,
        degrade_duration: Tuple[float, float] = (20.0, 60.0),
        degrade_factor: Tuple[float, float] = (0.2, 0.6),
        corrupt_blocks: Sequence[BlockId] = (),
    ) -> "ChaosSchedule":
        """Draw a plausible mixed-fault script from a seeded rng.

        Strike times are uniform over ``[0, horizon)``; durations and
        degradation factors are uniform over their given ranges.  Blocks
        to corrupt are supplied by the caller (the schedule cannot know
        which blocks will exist) and spread over the horizon.
        """
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        nodes = sorted(topology.node_ids())
        racks = sorted(topology.rack_ids())
        events: List[ChaosEvent] = []
        for __ in range(num_flaps):
            events.append(ChaosEvent(
                time=rng.uniform(0, horizon),
                kind=NODE_FLAP,
                target=rng.choice(nodes),
                duration=rng.uniform(*flap_duration),
            ))
        for __ in range(num_rack_outages):
            events.append(ChaosEvent(
                time=rng.uniform(0, horizon),
                kind=RACK_OUTAGE,
                target=rng.choice(racks),
                duration=rng.uniform(*outage_duration),
            ))
        for __ in range(num_degradations):
            events.append(ChaosEvent(
                time=rng.uniform(0, horizon),
                kind=DEGRADE_NODE,
                target=rng.choice(nodes),
                duration=rng.uniform(*degrade_duration),
                factor=rng.uniform(*degrade_factor),
            ))
        for block_id in corrupt_blocks:
            events.append(ChaosEvent(
                time=rng.uniform(0, horizon),
                kind=CORRUPT_BLOCK,
                target=block_id,
            ))
        return cls(events=events)


class ChaosInjector:
    """Executes a :class:`ChaosSchedule` against the live simulation.

    Args:
        sim: Simulation kernel.
        network: Endpoint liveness and bandwidth knobs.
        namenode: Needed for corruption (marks replicas in the store);
            optional when the schedule contains no corruption events.
        schedule: The fault script.
        rng: Random source for corruption replica choice.
        metrics: Fault collector (a fresh one when omitted): outage
            windows, injected corruption, and applied events per kind.

    Faults overlap freely: a rack outage may cover an already-flapping
    node.  Liveness restoration is reference-counted per node, so a node
    downed by both a flap and a rack outage only returns once *both*
    lift; likewise one target's overlapping outages share one window,
    closed when the last of them lifts.  Overlapping degradations of one
    node multiply: its bandwidth is the nominal value times every active
    factor, and returns to nominal when the last window lifts.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        schedule: ChaosSchedule,
        namenode=None,
        rng: Optional[random.Random] = None,
        metrics: Optional[FaultMetrics] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.schedule = schedule
        self.namenode = namenode
        self.rng = rng if rng is not None else random.Random(0)
        self.metrics = metrics if metrics is not None else FaultMetrics()
        self.applied: List[ChaosEvent] = []
        self.skipped: List[ChaosEvent] = []
        #: node -> outages currently holding it down
        self._down_refs: dict = {}
        #: outage label -> outages of that target not yet lifted
        self._outage_refs: dict = {}
        #: node -> (nominal up, nominal down, factors of the open windows)
        self._degraded: dict = {}

    def start(self):
        """Launch the script runner; returns its process."""
        return self.sim.process(self.run())

    def run(self) -> Generator:
        """Fire every scheduled event at its time (generator)."""
        for event in self.schedule:
            delay = event.time - self.sim.now
            if delay > 0:
                yield self.sim.timeout(delay)
            self._apply(event)
        return len(self.applied)

    # ------------------------------------------------------------------
    def _apply(self, event: ChaosEvent) -> None:
        self.metrics.record_storm_event(event.kind)
        if event.kind == NODE_FLAP:
            self._take_down([event.target], event, label=f"node {event.target}")
        elif event.kind == RACK_OUTAGE:
            nodes = sorted(self.network.topology.nodes_in_rack(event.target))
            self._take_down(nodes, event, label=f"rack {event.target}")
        elif event.kind == DEGRADE_NODE:
            self._degrade(event)
        elif event.kind == CORRUPT_BLOCK:
            self._corrupt(event)

    def _take_down(self, nodes: List[NodeId], event: ChaosEvent, label: str) -> None:
        for node in nodes:
            self._down_refs[node] = self._down_refs.get(node, 0) + 1
            self.network.fail_endpoint(node)
        self._outage_refs[label] = self._outage_refs.get(label, 0) + 1
        self.metrics.open_window(OUTAGE, label, self.sim.now)
        self.applied.append(event)
        self.sim.process(self._restore_later(nodes, event.duration, label))

    def _restore_later(
        self, nodes: List[NodeId], duration: float, label: str
    ) -> Generator:
        yield self.sim.timeout(duration)
        for node in nodes:
            if _release(self._down_refs, node):
                self.network.restore_endpoint(node)
        if _release(self._outage_refs, label):
            self.metrics.close_window(OUTAGE, label, self.sim.now)

    def _degrade(self, event: ChaosEvent) -> None:
        node = event.target
        if node not in self._degraded:
            self._degraded[node] = (
                self.network.node_up_bandwidth(node),
                self.network.node_down_bandwidth(node),
                [],
            )
        self._degraded[node][2].append(event.factor)
        self._apply_degradation(node)
        self.applied.append(event)
        self.sim.process(
            self._undegrade_later(node, event.factor, event.duration)
        )

    def _undegrade_later(
        self, node: NodeId, factor: float, duration: float
    ) -> Generator:
        yield self.sim.timeout(duration)
        self._degraded[node][2].remove(factor)
        self._apply_degradation(node)

    def _apply_degradation(self, node: NodeId) -> None:
        up, down, factors = self._degraded[node]
        scale = math.prod(factors)
        self.network.set_node_bandwidth(node, up=up * scale, down=down * scale)
        if not factors:
            del self._degraded[node]

    def _corrupt(self, event: ChaosEvent) -> None:
        """Rot one replica of the target block on a live node."""
        if self.namenode is None:
            raise ValueError("corruption events need a namenode")
        store = self.namenode.block_store
        block_id = event.target
        try:
            replicas = [
                n for n in store.healthy_replica_nodes(block_id)
                if self.network.is_up(n)
            ]
        except KeyError:
            replicas = []
        if not replicas:
            # The block was deleted (encoding trimmed it) or everything
            # is down: nothing to rot right now.
            self.skipped.append(event)
            return
        node = self.rng.choice(replicas)
        store.mark_corrupted(block_id, node)
        self.metrics.count("corruption_injected")
        self.applied.append(event)


def _release(refs: dict, key) -> bool:
    """Drop one outage's hold on ``key``; True when it was the last."""
    refs[key] -= 1
    if refs[key] > 0:
        return False
    del refs[key]
    return True
