"""Time-driven permanent failure injection.

At a scheduled time a node (or a whole rack) fails for good: its
endpoints go down in the network model, its replicas vanish from the
metadata, and every block it held is handed to the
:class:`~repro.faults.repair.RepairQueue` — the one engine that decides
how a lost block is rebuilt (decode from the stripe, or re-replicate
from a survivor) and where the new copy lands.  The injector only
causes the damage, waits for the queue, and reports what it cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List

from repro.cluster.block import BlockId
from repro.cluster.topology import NodeId, RackId
from repro.faults.repair import (
    DECODED,
    REREPLICATED,
    UNRECOVERABLE,
    RepairQueue,
)
from repro.hdfs.namenode import NameNode
from repro.hdfs.raidnode import RaidNode
from repro.sim.engine import Simulator
from repro.sim.netsim import Network


@dataclass(frozen=True)
class FailureReport:
    """What one injected failure cost to repair."""

    failed_nodes: tuple
    blocks_lost: int
    blocks_recovered: int
    blocks_rereplicated: int
    unrecoverable: tuple
    repair_time: float


class FailureInjector:
    """Schedules permanent node/rack failures and waits out their repair.

    A failed node is always down on the network too, so in-flight
    transfers touching it raise ``TransferAborted`` and the repair queue
    (which picks replacement nodes by network liveness) never lands a
    rebuilt block back on it.

    Args:
        sim: Simulation kernel.
        network: Link model (failed endpoints go down in it).
        namenode: Metadata server.
        raidnode: The cluster's RaidNode (the queue's decode engine).
        repair_queue: Where every lost block is enqueued; the injector
            waits for the queue to finish them before emitting its report.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        namenode: NameNode,
        raidnode: RaidNode,
        repair_queue: RepairQueue,
    ) -> None:
        self.sim = sim
        self.network = network
        self.namenode = namenode
        self.raidnode = raidnode
        self.repair_queue = repair_queue
        self.reports: List[FailureReport] = []

    # ------------------------------------------------------------------
    def fail_node_at(self, when: float, node_id: NodeId) -> Generator:
        """Fail one node at time ``when`` and repair (run as a process)."""
        delay = when - self.sim.now
        if delay > 0:
            yield self.sim.timeout(delay)
        report = yield from self._fail_and_repair([node_id])
        return report

    def fail_rack_at(self, when: float, rack_id: RackId) -> Generator:
        """Fail every node of a rack at time ``when`` and repair."""
        delay = when - self.sim.now
        if delay > 0:
            yield self.sim.timeout(delay)
        nodes = list(self.namenode.topology.nodes_in_rack(rack_id))
        report = yield from self._fail_and_repair(nodes)
        return report

    # ------------------------------------------------------------------
    def _fail_and_repair(self, failed: List[NodeId]) -> Generator:
        store = self.namenode.block_store
        start = self.sim.now

        for node_id in failed:
            self.network.fail_endpoint(node_id)

        lost: List[BlockId] = []
        for node_id in failed:
            for block_id in list(store.blocks_on_node(node_id)):
                store.remove_replica(block_id, node_id)
                lost.append(block_id)

        # A rack failure can take several replicas of one block.
        ordered = list(dict.fromkeys(lost))
        completions = [self.repair_queue.enqueue(b) for b in ordered]
        outcomes = []
        if completions:
            outcomes = yield self.sim.all_of(completions)

        report = FailureReport(
            failed_nodes=tuple(failed),
            blocks_lost=len(ordered),
            blocks_recovered=outcomes.count(DECODED),
            blocks_rereplicated=outcomes.count(REREPLICATED),
            unrecoverable=tuple(
                block_id
                for block_id, outcome in zip(ordered, outcomes)
                if outcome == UNRECOVERABLE
            ),
            repair_time=self.sim.now - start,
        )
        self.reports.append(report)
        return report
