"""Poisson read-request streams.

The paper's first sentence about replication: it "improves read performance
by load-balancing read requests across multiple replicas".  This stream
issues block reads from random nodes at a Poisson rate, so experiments can
measure read latency under RR vs EAR directly in the DES (complementing the
analytic hotness index of Experiment C.2) and quantify how encoding-induced
replica loss affects read locality.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Generator, List, Optional

from repro.cluster.block import BlockId
from repro.cluster.topology import NodeId
from repro.hdfs.client import CFSClient
from repro.sim.engine import Simulator
from repro.sim.sources import poisson_arrivals
from repro.workloads.seeding import experiment_rng


@dataclass(frozen=True)
class ReadResult:
    """Outcome of one block read."""

    block_id: BlockId
    reader_node: NodeId
    source_node: NodeId
    start_time: float
    latency: float

    def was_local(self) -> bool:
        """True when the read was served from the reader's own node."""
        return self.source_node == self.reader_node


class ReadStream:
    """Issues block reads with Poisson arrivals from random nodes.

    Args:
        sim: Simulation kernel.
        client: CFS client.
        rate: Mean requests/second.
        rng: Seeded random source; defaults to a fresh generator seeded
            with the experiment seed (never process entropy).
        block_pool: Blocks eligible to be read; resampled per request.
            When omitted, each request picks uniformly from all blocks
            currently known to the NameNode.
        reader_nodes: Pool of reading nodes; all DataNodes when omitted.
    """

    def __init__(
        self,
        sim: Simulator,
        client: CFSClient,
        rate: float,
        rng: Optional[random.Random] = None,
        block_pool: Optional[List[BlockId]] = None,
        reader_nodes: Optional[List[NodeId]] = None,
    ) -> None:
        if not rate > 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.client = client
        self.rate = rate
        self.rng = rng if rng is not None else experiment_rng()
        self.block_pool = block_pool
        self.reader_nodes = (
            list(client.namenode.topology.node_ids())
            if reader_nodes is None
            else list(reader_nodes)
        )
        if not self.reader_nodes:
            raise ValueError("reader pool cannot be empty")
        self.results: List[ReadResult] = []
        self._stopped = False

    def stop(self) -> None:
        """Stop issuing new requests (in-flight reads complete)."""
        self._stopped = True

    def run(
        self, limit: Optional[int] = None, duration: Optional[float] = None
    ) -> Generator:
        """The arrival process (run inside ``sim.process``)."""
        start = self.sim.now
        issued = 0
        for gap in poisson_arrivals(self.rng, self.rate, limit):
            yield self.sim.timeout(gap)
            if self._stopped:
                break
            if duration is not None and self.sim.now - start >= duration:
                break
            block_id = self._pick_block()
            if block_id is None:
                continue  # nothing to read yet
            reader = self.rng.choice(self.reader_nodes)
            self.sim.process(self._one_read(block_id, reader))
            issued += 1
        return issued

    def mean_latency(self) -> float:
        """Mean completed read latency.

        Raises:
            ValueError: With no completed reads.
        """
        if not self.results:
            raise ValueError("no reads completed")
        return sum(r.latency for r in self.results) / len(self.results)

    def local_fraction(self) -> float:
        """Share of reads served node-locally."""
        if not self.results:
            raise ValueError("no reads completed")
        return sum(1 for r in self.results if r.was_local()) / len(self.results)

    # ------------------------------------------------------------------
    def _pick_block(self) -> Optional[BlockId]:
        if self.block_pool is not None:
            return self.rng.choice(self.block_pool) if self.block_pool else None
        store = self.client.namenode.block_store
        if not len(store):
            return None
        blocks = [b.block_id for b in store.blocks()]
        return self.rng.choice(blocks)

    def _one_read(self, block_id: BlockId, reader: NodeId) -> Generator:
        start = self.sim.now
        source = yield from self.client.read_block(block_id, reader)
        self.results.append(
            ReadResult(
                block_id=block_id,
                reader_node=reader,
                source_node=source,
                start_time=start,
                latency=self.sim.now - start,
            )
        )
