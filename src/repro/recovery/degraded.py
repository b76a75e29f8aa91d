"""Client-side degraded reads: decode around lost blocks, escalate cleanly.

When a read request lands on a block whose replicas are all gone (node
loss) or unreachable (outage), HDFS-RAID does not make the client wait
for the background repair pipeline.  The client fetches ``k`` surviving
blocks of the stripe, decodes the missing one in memory, and answers the
read — slower and heavier on the network than a normal read, but live.

:class:`DegradedReadPath` models that client, with the failure ladder a
real one climbs:

1. **normal** — a healthy, reachable replica exists; read it (preferring
   local, then rack-local, sources).
2. **degraded** — no reachable replica, but the block belongs to an
   encoded stripe: fetch ``k`` survivors under the bounded
   :data:`~repro.faults.retry.DEGRADED_READ_RETRY` policy, pay a
   deterministic decode-time penalty, and account the read's latency and
   cross-rack bytes against :class:`~repro.sim.metrics.FaultMetrics`.
3. **escalated** — fewer than ``k`` survivors are reachable (or the
   bounded retries exhaust): hand the block to the repair queue and fail
   the read; the caller sees an :data:`ESCALATED` result instead of an
   unbounded stall.

Every random choice comes from an injected seeded rng, so drills that
issue degraded reads stay fingerprint-deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Generator, List, Optional, Tuple

from repro.cluster.block import BlockId
from repro.cluster.topology import NodeId
from repro.core.stripe import StripeState
from repro.faults.retry import DEGRADED_READ_RETRY, RetryPolicy
from repro.sim.engine import Simulator
from repro.sim.metrics import FaultMetrics
from repro.sim.netsim import Network, TransferAborted

#: How the read was ultimately served.
NORMAL = "normal"
DEGRADED = "degraded"
ESCALATED = "escalated"

#: Default in-memory decode throughput, bytes/second.  GF(2^8)
#: reconstruction on one core moves on the order of a gigabyte a second
#: (cf. the batched-kernel bench), so decoding a (14,10) stripe of 64 MiB
#: blocks costs a visible-but-not-dominant fraction of a second.
DEFAULT_DECODE_BANDWIDTH = 1.0e9


@dataclass(frozen=True)
class DegradedReadResult:
    """Outcome of one client read through the degraded path.

    Attributes:
        block_id: The block the client asked for.
        reader_node: Where the data was needed.
        mode: :data:`NORMAL`, :data:`DEGRADED`, or :data:`ESCALATED`.
        latency: Simulated seconds from request to answer (for
            escalations: until the client gave up).
        bytes_read: Bytes the read pulled over the network or disk.
        cross_rack_bytes: Portion of ``bytes_read`` that crossed racks.
        survivors_fetched: Blocks downloaded to decode (0 unless
            degraded).
    """

    block_id: BlockId
    reader_node: NodeId
    mode: str
    latency: float
    bytes_read: float
    cross_rack_bytes: float
    survivors_fetched: int = 0

    @property
    def served(self) -> bool:
        """True when the client actually got the data."""
        return self.mode in (NORMAL, DEGRADED)


class DegradedReadPath:
    """The client read path over a cluster with encoded stripes.

    Args:
        sim: Simulation kernel.
        network: Link model and liveness oracle.
        namenode: Metadata server (block store + pre-encoding store).
        raidnode: Supplies the survivor-fetch machinery for decoding.
        repair_queue: Escalation target; optional — without one an
            escalated read is only recorded, not enqueued.
        retry: Bounded inline retry policy for the survivor fetch.
            Defaults to :data:`~repro.faults.retry.DEGRADED_READ_RETRY`.
        rng: Seeded random source (jitter draws).
        metrics: Fault collector counting read modes, latency and bytes
            (a fresh one when omitted).
        decode_bandwidth: Deterministic in-memory decode throughput used
            for the decode-time penalty, bytes/second.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        namenode,
        raidnode,
        repair_queue=None,
        retry: RetryPolicy = DEGRADED_READ_RETRY,
        rng: Optional[random.Random] = None,
        metrics: Optional[FaultMetrics] = None,
        decode_bandwidth: float = DEFAULT_DECODE_BANDWIDTH,
    ) -> None:
        if not decode_bandwidth > 0:
            raise ValueError("decode bandwidth must be positive")
        self.sim = sim
        self.network = network
        self.namenode = namenode
        self.raidnode = raidnode
        self.repair_queue = repair_queue
        self.retry = retry
        self.rng = rng if rng is not None else random.Random(0)
        self.metrics = metrics if metrics is not None else FaultMetrics()
        self.decode_bandwidth = decode_bandwidth
        self.results: List[DegradedReadResult] = []

    # ------------------------------------------------------------------
    def read_block(self, block_id: BlockId, reader_node: NodeId) -> Generator:
        """Serve one read, climbing the normal → degraded → escalated ladder.

        Returns:
            A :class:`DegradedReadResult` (generator return value).
        """
        start = self.sim.now
        result = yield from self._read_normal(block_id, reader_node, start)
        if result is None:
            result = yield from self._read_degraded(
                block_id, reader_node, start
            )
        self.results.append(result)
        return result

    # ------------------------------------------------------------------
    # Rung 1: a plain replica read
    # ------------------------------------------------------------------
    def _read_normal(
        self, block_id: BlockId, reader_node: NodeId, start: float
    ) -> Generator:
        """Try reachable replicas nearest-first; None if all fail."""
        store = self.namenode.block_store
        size = store.block(block_id).size
        for source in self._live_sources(block_id, reader_node):
            try:
                if source == reader_node:
                    if self.network.disk is not None:
                        yield from self.network.disk_read(reader_node, size)
                else:
                    yield from self.network.transfer(
                        source, reader_node, size, write_disk=False
                    )
            except TransferAborted:
                continue  # the source died mid-read; try the next one
            cross = size if self.network.is_cross_rack(
                source, reader_node
            ) else 0.0
            self.metrics.count("normal_reads")
            return DegradedReadResult(
                block_id=block_id,
                reader_node=reader_node,
                mode=NORMAL,
                latency=self.sim.now - start,
                bytes_read=float(size),
                cross_rack_bytes=cross,
            )
        return None

    def _live_sources(
        self, block_id: BlockId, reader_node: NodeId
    ) -> List[NodeId]:
        """Reachable healthy replicas, nearest-first, deterministic."""
        try:
            nodes = self.namenode.block_store.healthy_replica_nodes(block_id)
        except KeyError:
            return []
        live = [n for n in nodes if self.network.is_up(n)]

        def distance(node: NodeId) -> Tuple[int, NodeId]:
            if node == reader_node:
                return (0, node)
            if not self.network.is_cross_rack(node, reader_node):
                return (1, node)
            return (2, node)

        return sorted(live, key=distance)

    # ------------------------------------------------------------------
    # Rungs 2 and 3: inline decode, then escalation
    # ------------------------------------------------------------------
    def _read_degraded(
        self, block_id: BlockId, reader_node: NodeId, start: float
    ) -> Generator:
        stripe = self.namenode.stripe_of(block_id)
        if stripe is None or stripe.state != StripeState.ENCODED:
            # Not decodable: a replicated block with every copy gone is
            # the repair pipeline's problem, not the client's.
            result = self._escalate(block_id, reader_node, start)
            return result
        try:
            # The bounded client policy overrides the RaidNode's own
            # (pipeline-grade, 60 s backoff ceiling) retry policy for
            # this one read, so the inline wait stays capped.
            record = yield from self.raidnode.degraded_read(
                stripe, block_id, reader_node, retry=self.retry
            )
        except (RuntimeError, TransferAborted):
            # RuntimeError: under k survivors exist anywhere (true data
            # loss) — or RetryExhausted, the bounded inline budget ran
            # out.  TransferAborted: a transient fault with no retry
            # policy configured at all.  Either way the client stops
            # waiting and the repair queue takes over.
            result = self._escalate(block_id, reader_node, start)
            return result
        size = self.namenode.block_store.block(block_id).size
        yield self.sim.timeout(stripe.k * size / self.decode_bandwidth)
        latency = self.sim.now - start
        bytes_read = float(stripe.k * size)
        cross_bytes = float(record.cross_rack_reads * size)
        self.metrics.record_degraded_read(latency, bytes_read, cross_bytes)
        return DegradedReadResult(
            block_id=block_id,
            reader_node=reader_node,
            mode=DEGRADED,
            latency=latency,
            bytes_read=bytes_read,
            cross_rack_bytes=cross_bytes,
            survivors_fetched=stripe.k,
        )

    def _escalate(
        self, block_id: BlockId, reader_node: NodeId, start: float
    ) -> DegradedReadResult:
        if self.repair_queue is not None:
            self.repair_queue.enqueue(block_id)
        self.metrics.count("escalations")
        return DegradedReadResult(
            block_id=block_id,
            reader_node=reader_node,
            mode=ESCALATED,
            latency=self.sim.now - start,
            bytes_read=0.0,
            cross_rack_bytes=0.0,
        )
