"""The pipelined stripe encoder: hop-to-hop streaming over the DES model.

Instead of downloading ``k`` blocks to one encoder node (the paper's
Section II-A operation), the :class:`PipelinedEncoder` runs a
RapidRAID-style chain: each replica holder folds its block into the
running GF(2^8) partial combination and forwards it to the next hop in
chunks, so consecutive chunks of one stripe stream through different
stages concurrently.  The tail hop ends with the finished parity and
delivers it to the planned parity nodes; the commit — replica retention,
parity block minting, journal bracket — goes through exactly the same
``NameNode.record_encoding`` path the download encoder uses.

Failure ladder (when a :class:`~repro.faults.retry.RetryPolicy` is
attached):

1. any aborted hop or delivery transfer kills the in-flight attempt
   (partial work unwinds; nothing was committed);
2. the retry loop re-plans the pipeline against current liveness, so the
   next attempt routes around the dead node (a re-plan that changed the
   route is counted in :class:`~repro.pipeline.metrics.PipelineMetrics`);
3. when every attempt dies, the stripe falls back to the paper-style
   download-and-encode :class:`~repro.hdfs.encoder.StripeEncoder` —
   which carries its own retry loop — and the fallback is recorded.

Parity is only ever committed after every transfer of an attempt
succeeded, and payload synthesis is deterministic per block, so a
retried or fallen-back stripe commits byte-identical parity: the chaos
tests pin "never wrong, never partial".

The encoder is duck-type compatible with :class:`StripeEncoder` where
the RaidNode needs it (``encode_stripes`` / ``encode_stripe`` /
``records``) and *shares* the fallback's ``records`` list, so existing
throughput meters, fingerprints and reports see pipelined and fallback
stripes uniformly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Generator, List, Optional, Tuple

from repro.cluster.topology import NodeId
from repro.core.parity import EncodingPlanner
from repro.core.stripe import Stripe
from repro.erasure.codec import CodeParams
from repro.erasure.stream import StreamingDataPlane
from repro.faults.retry import RetryExhausted, RetryPolicy, with_retries
from repro.hdfs.encoder import EncodedStripe, StripeEncoder
from repro.hdfs.namenode import NameNode
from repro.pipeline.gfstream import pipelined_parity
from repro.pipeline.metrics import PipelineMetrics
from repro.pipeline.planner import PipelinePlan, plan_pipeline
from repro.sim.engine import Simulator
from repro.sim.metrics import (
    OpsDelta,
    ResilienceMetrics,
    ThroughputMeter,
    TimeSeries,
)
from repro.sim.netsim import Network


@dataclass(frozen=True)
class PipelinedStripe:
    """Record of one stripe's journey through the pipeline path."""

    stripe_id: int
    tail_node: NodeId
    hop_nodes: Tuple[NodeId, ...]
    start_time: float
    finish_time: float
    cross_rack_hops: int
    cross_rack_deliveries: int
    chunks: int
    fallback: bool

    @property
    def duration(self) -> float:
        """Wall-clock seconds the stripe's encoding took."""
        return self.finish_time - self.start_time


class PipelinedEncoder:
    """Runs the pipelined encoding operation for stripes.

    Args:
        sim: Simulation kernel.
        network: Link/disk model (hop transfers ride the same links the
            download encoder uses).
        namenode: Metadata server; commits go through
            ``record_encoding`` unchanged.
        planner: The policy's encoding planner — produces the commit
            half of each pipeline plan.
        code: The ``(n, k)`` stripe geometry.
        fallback: The download-and-encode encoder used when the retry
            ladder exhausts; its ``records`` list is shared so both
            paths feed one timeline.
        rng: Random source for retry jitter (deterministic default).
        retry: Per-stripe retry policy; ``None`` means fail-fast.
        resilience: Optional fault metrics fed by the retry loop.
        metrics: Pipeline metrics collector (created when omitted).
        data_plane: Optional streaming data plane.  When given, parity
            payloads are computed with :func:`pipelined_parity` in hop
            order (byte-identical to the whole-stripe codec) and each
            hop's GF work is billed to the hop's node.
        chunk_count: Chunks each block is pipelined as; higher values
            overlap more stages at more per-transfer events.
        compute_bandwidth: Per-hop fold throughput in bytes/second;
            ``None`` makes computation free (network-bound, the paper's
            model).
        throughput: Optional meter fed with each stripe's data volume.
        timeline: Optional series receiving stripe completion times.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        namenode: NameNode,
        planner: EncodingPlanner,
        code: CodeParams,
        fallback: StripeEncoder,
        rng: Optional[random.Random] = None,
        retry: Optional[RetryPolicy] = None,
        resilience: Optional[ResilienceMetrics] = None,
        metrics: Optional[PipelineMetrics] = None,
        data_plane: Optional[StreamingDataPlane] = None,
        chunk_count: int = 4,
        compute_bandwidth: Optional[float] = None,
        throughput: Optional[ThroughputMeter] = None,
        timeline: Optional[TimeSeries] = None,
    ) -> None:
        if chunk_count < 1:
            raise ValueError(f"chunk_count must be >= 1, got {chunk_count}")
        if compute_bandwidth is not None and compute_bandwidth <= 0:
            raise ValueError("compute bandwidth must be positive")
        self.sim = sim
        self.network = network
        self.namenode = namenode
        self.planner = planner
        self.code = code
        self.fallback = fallback
        self.rng = rng if rng is not None else random.Random(0)
        self.retry = retry
        self.resilience = resilience
        self.metrics = metrics if metrics is not None else PipelineMetrics()
        self.data_plane = data_plane
        self.chunk_count = chunk_count
        self.compute_bandwidth = compute_bandwidth
        self.throughput = throughput
        self.timeline = timeline
        #: Shared with the fallback encoder: one unified stripe timeline.
        self.records: List[EncodedStripe] = fallback.records
        self.pipeline_records: List[PipelinedStripe] = []

    # ------------------------------------------------------------------
    def encode_stripe(
        self, stripe: Stripe, encoder_node: Optional[NodeId] = None
    ) -> Generator:
        """Encode one sealed stripe (generator; run inside a process).

        ``encoder_node`` — the map task's node — is advisory only: the
        pipeline route follows the replicas.  It is forwarded to the
        fallback encoder, which pins its download target with it.

        Returns:
            The :class:`~repro.hdfs.encoder.EncodedStripe` record.
        """
        if self.retry is None:
            plan = self._plan(stripe)
            record = yield from self._pipeline_once(stripe, plan)
            return record
        state = {"signature": None}
        try:
            record = yield from with_retries(
                self.sim,
                lambda __: self._pipeline_attempt(stripe, state),
                self.retry,
                self.rng,
                metrics=self.resilience,
                label=f"pipeline stripe {stripe.stripe_id}",
            )
            return record
        except RetryExhausted:
            self.metrics.record_fallback()
            start = self.sim.now
            record = yield from self.fallback.encode_stripe(
                stripe, encoder_node
            )
            self.pipeline_records.append(PipelinedStripe(
                stripe_id=stripe.stripe_id,
                tail_node=record.encoder_node,
                hop_nodes=(),
                start_time=start,
                finish_time=self.sim.now,
                cross_rack_hops=0,
                cross_rack_deliveries=record.cross_rack_uploads,
                chunks=0,
                fallback=True,
            ))
            return record

    def encode_stripes(
        self, stripes: List[Stripe], encoder_node: Optional[NodeId] = None
    ) -> Generator:
        """Encode several stripes back to back (one map task's work)."""
        records = []
        for stripe in stripes:
            record = yield from self.encode_stripe(stripe, encoder_node)
            records.append(record)
        return records

    # ------------------------------------------------------------------
    def _plan(self, stripe: Stripe, source_ok=None) -> PipelinePlan:
        return plan_pipeline(
            self.namenode.topology,
            self.namenode.block_store,
            stripe,
            self.planner,
            source_ok=source_ok,
        )

    def _pipeline_attempt(self, stripe: Stripe, state: dict) -> Generator:
        """One fault-aware attempt: re-plan against current liveness."""
        store = self.namenode.block_store

        def source_ok(block_id: int, node: NodeId) -> bool:
            return self.network.is_up(node) and not (
                store.is_corrupted(block_id, node)
            )

        plan = self._plan(stripe, source_ok=source_ok)
        signature = plan.signature()
        if state["signature"] is not None and signature != state["signature"]:
            self.metrics.record_replan()
        state["signature"] = signature
        record = yield from self._pipeline_once(stripe, plan)
        return record

    def _pipeline_once(
        self, stripe: Stripe, plan: PipelinePlan
    ) -> Generator:
        """Run one pipeline attempt to completion and commit the stripe.

        The chunked hop protocol: ``done[i][c]`` fires once hop ``i`` has
        folded chunk ``c``.  Hop ``i+1`` waits for it, pulls the partial
        combination across the wire, folds its own block's chunk and
        fires its event — so chunk ``c+1`` can occupy hop ``i`` while
        chunk ``c`` is in flight to hop ``i+1``.  Parity deliveries
        stream off the tail the same way.  A failed transfer anywhere
        fails the attempt as a whole; the ``cancelled`` flag stops the
        surviving stage processes at their next chunk boundary so a
        doomed attempt stops generating traffic.
        """
        sim = self.sim
        network = self.network
        start = sim.now
        store = self.namenode.block_store
        hops = plan.hops
        chunks = self.chunk_count
        block_size = self.namenode.block_size
        data_chunk = block_size / chunks
        # The running combination carries all n-k partial parity rows.
        partial_chunk = self.code.num_parity * block_size / chunks
        done = [[sim.event() for __ in range(chunks)] for __ in hops]
        cancelled = [False]

        def hop_stage(index: int) -> Generator:
            hop = hops[index]
            for c in range(chunks):
                if index > 0:
                    yield done[index - 1][c]
                    if cancelled[0]:
                        return
                    previous = hops[index - 1].node
                    if previous != hop.node:
                        yield from network.transfer(
                            previous, hop.node, partial_chunk,
                            read_disk=False, write_disk=False,
                        )
                        self.metrics.record_hop_transfer(
                            partial_chunk,
                            network.is_cross_rack(previous, hop.node),
                        )
                    if cancelled[0]:
                        return
                if network.disk is not None:
                    yield from network.disk_read(hop.node, data_chunk)
                if self.compute_bandwidth is not None:
                    yield sim.timeout(data_chunk / self.compute_bandwidth)
                done[index][c].succeed()

        def delivery_stage(parity_node: NodeId) -> Generator:
            tail = hops[-1].node
            for c in range(chunks):
                yield done[len(hops) - 1][c]
                if cancelled[0]:
                    return
                if parity_node != tail:
                    yield from network.transfer(
                        tail, parity_node, data_chunk,
                        read_disk=False, write_disk=False,
                    )
                    self.metrics.record_delivery(
                        data_chunk,
                        network.is_cross_rack(tail, parity_node),
                    )

        stages = [sim.process(hop_stage(i)) for i in range(len(hops))]
        stages += [
            sim.process(delivery_stage(node))
            for node in plan.commit.parity_nodes
        ]
        try:
            yield sim.all_of(stages)
        except BaseException:
            cancelled[0] = True
            raise

        # Every transfer succeeded: compute real parity bytes (billed per
        # hop), then commit through the same journal bracket the download
        # encoder uses.  Payload synthesis is deterministic per block, so
        # a retried attempt recomputes identical bytes (idempotent).
        parity_payloads = None
        if self.data_plane is not None:
            parity_payloads = self._pipelined_payloads(stripe, plan)
        data_bytes = sum(
            store.block(block_id).size for block_id in stripe.block_ids
        )
        parity_blocks = self.namenode.record_encoding(stripe, plan.commit)
        if self.data_plane is not None and parity_payloads is not None:
            self.data_plane.commit_parity(parity_blocks, parity_payloads)

        record = EncodedStripe(
            stripe_id=stripe.stripe_id,
            encoder_node=plan.tail_node,
            start_time=start,
            finish_time=sim.now,
            cross_rack_downloads=plan.cross_rack_hops,
            cross_rack_uploads=plan.cross_rack_deliveries,
        )
        self.records.append(record)
        self.pipeline_records.append(PipelinedStripe(
            stripe_id=stripe.stripe_id,
            tail_node=plan.tail_node,
            hop_nodes=tuple(hop.node for hop in hops),
            start_time=start,
            finish_time=sim.now,
            cross_rack_hops=plan.cross_rack_hops,
            cross_rack_deliveries=plan.cross_rack_deliveries,
            chunks=chunks,
            fallback=False,
        ))
        self.metrics.record_stripe()
        if self.throughput is not None:
            self.throughput.record(sim.now, data_bytes)
        if self.timeline is not None:
            self.timeline.record(sim.now, record.stripe_id)
        return record

    def _pipelined_payloads(
        self, stripe: Stripe, plan: PipelinePlan
    ) -> List[bytes]:
        """Real parity bytes in hop order, GF work billed per hop node."""
        assert self.data_plane is not None
        store = self.namenode.block_store
        sources = [
            self.data_plane.payload_for(
                block_id, store.block(block_id).size
            )
            for block_id in stripe.block_ids
        ]
        length = max((len(s) for s in sources), default=0)
        hop_nodes = [hop.node for hop in plan.hops]

        def bill(hop_index: int, column: int, ops: OpsDelta) -> None:
            del column
            self.metrics.record_hop_gf(hop_nodes[hop_index], ops)

        return pipelined_parity(
            sources,
            self.data_plane.codec,
            hop_order=[hop.column for hop in plan.hops],
            chunk_size=self.data_plane.chunk_size,
            length=length,
            on_hop=bill,
        )
