"""Background checksum scrubbing: detect bit-rot, enqueue repairs.

HDFS DataNodes periodically re-verify block checksums on disk; a replica
whose checksum no longer matches is dropped and re-created from a healthy
copy (or decoded from the stripe).  This module models that loop over the
simulated store's corruption markers: each scan "reads" every replica,
notices the marked ones, removes them from the metadata, and hands the
damage to the :class:`~repro.faults.repair.RepairQueue`.

The scan itself is metadata-only (zero simulated I/O cost) — the paper's
simulator charges links for data movement, not for the steady background
verify trickle; only the repairs triggered by a detection move bytes.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Tuple

from repro.cluster.block import BlockId
from repro.cluster.topology import NodeId
from repro.sim.engine import Simulator
from repro.sim.metrics import FaultMetrics
from repro.sim.netsim import Network


class Scrubber:
    """Periodic corruption scanner feeding the repair queue.

    Args:
        sim: Simulation kernel.
        network: Liveness oracle — a down node's disks cannot be verified,
            so its corrupted replicas wait for the next scan after it
            returns.
        namenode: Metadata server whose block store carries the markers.
        repair_queue: Destination for detected damage.
        interval: Seconds between scan passes.
        metrics: Fault collector counting detections (a fresh one when
            omitted).
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        namenode,
        repair_queue,
        interval: float = 60.0,
        metrics: Optional[FaultMetrics] = None,
    ) -> None:
        if not interval > 0:
            raise ValueError("scrub interval must be positive")
        self.sim = sim
        self.network = network
        self.namenode = namenode
        self.repair_queue = repair_queue
        self.interval = interval
        self.metrics = metrics if metrics is not None else FaultMetrics()
        self.detected: List[Tuple[float, BlockId, NodeId]] = []
        self.scans = 0

    def start(self):
        """Launch the endless scan loop; returns its process."""
        return self.sim.process(self.run())

    def run(self) -> Generator:
        """Scan forever, one pass per interval (generator)."""
        while True:
            yield self.sim.timeout(self.interval)
            self.scan_once()

    def scan_once(self) -> int:
        """One full verify pass; returns how many bad replicas it caught.

        A detected replica is immediately removed from the metadata (the
        copy is useless) and its block enqueued for repair — prioritized
        like any other damage, so a corrupted single-copy stripe member
        jumps ahead of a merely under-replicated block.
        """
        self.scans += 1
        store = self.namenode.block_store
        caught = 0
        for block_id, node_id in store.corrupted_replicas():
            if not self.network.is_up(node_id):
                continue  # cannot verify a dead disk; next pass gets it
            self.detected.append((self.sim.now, block_id, node_id))
            self.metrics.count("scrub_detections")
            store.remove_replica(block_id, node_id)
            self.repair_queue.enqueue(block_id)
            caught += 1
        return caught
