"""Poisson write-request streams.

Experiment A.2 issues single-block (64 MB) writes as a Poisson process at
0.5 requests/s; Experiment B.2 uses 1 request/s (and sweeps the rate in
Figure 13(d)).  Each request runs the full replication pipeline through the
client, so writes contend with encoding and background traffic on the same
links — the contention EAR relieves.
"""

from __future__ import annotations

import random
from typing import Generator, List, Optional

from repro.cluster.topology import NodeId
from repro.hdfs.client import CFSClient, WriteResult
from repro.sim.engine import Simulator
from repro.sim.sources import poisson_arrivals
from repro.workloads.seeding import experiment_rng


class WriteStream:
    """Generates block writes with Poisson arrivals from random nodes.

    Args:
        sim: Simulation kernel.
        client: CFS client issuing the writes.
        rate: Mean requests/second.
        rng: Seeded random source (arrivals and writer choice); defaults
            to a fresh generator seeded with the experiment seed.
        block_size: Bytes per write (client default when ``None``).
        writer_nodes: Pool of originating endpoints; every DataNode when
            omitted.

    The stream runs until stopped or until ``limit`` requests; completed
    writes are collected in :attr:`results`.
    """

    def __init__(
        self,
        sim: Simulator,
        client: CFSClient,
        rate: float,
        rng: Optional[random.Random] = None,
        block_size: Optional[int] = None,
        writer_nodes: Optional[List[NodeId]] = None,
    ) -> None:
        if not rate > 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.client = client
        self.rate = rate
        self.rng = rng if rng is not None else experiment_rng()
        self.block_size = block_size
        self.writer_nodes = (
            list(client.namenode.topology.node_ids())
            if writer_nodes is None
            else list(writer_nodes)
        )
        if not self.writer_nodes:
            raise ValueError("writer pool cannot be empty")
        self.results: List[WriteResult] = []
        self._stopped = False

    def stop(self) -> None:
        """Stop issuing new requests (in-flight writes complete)."""
        self._stopped = True

    def run(self, limit: Optional[int] = None, duration: Optional[float] = None) -> Generator:
        """The arrival process (run inside ``sim.process``).

        Args:
            limit: Stop after this many requests.
            duration: Stop once this much simulated time has elapsed since
                the stream started.

        Each request is spawned as its own process so slow writes never
        delay later arrivals.
        """
        start = self.sim.now
        issued = 0
        for gap in poisson_arrivals(self.rng, self.rate, limit):
            yield self.sim.timeout(gap)
            if self._stopped:
                break
            if duration is not None and self.sim.now - start >= duration:
                break
            writer = self.rng.choice(self.writer_nodes)
            self.sim.process(self._one_write(writer))
            issued += 1
        return issued

    def replay(self, start_times: List[float]) -> Generator:
        """Issue writes at fixed times (the paper re-plays identical arrival
        times across its five runs)."""
        for start_time in sorted(start_times):
            delay = start_time - self.sim.now
            if delay > 0:
                yield self.sim.timeout(delay)
            writer = self.rng.choice(self.writer_nodes)
            self.sim.process(self._one_write(writer))
        return len(start_times)

    def _one_write(self, writer: NodeId) -> Generator:
        result = yield from self.client.write_block(
            size=self.block_size, writer_node=writer
        )
        self.results.append(result)
