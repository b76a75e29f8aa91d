"""The pipelined stripe encoder: hop-to-hop streaming over the DES model.

Instead of downloading ``k`` blocks to one encoder node (the paper's
Section II-A operation), the :class:`PipelinedEncoder` runs a
RapidRAID-style chain: each replica holder folds its block into the
running GF(2^8) partial combination and forwards it to the next hop in
chunks, so consecutive chunks of one stripe stream through different
stages concurrently.  The tail hop ends with the finished parity and
delivers it to the planned parity nodes.

:class:`PipelinedEncoder` *is a* :class:`~repro.hdfs.encoder.StripeEncoder`
and contributes only what is genuinely the chain's: the route plan (and
the signature that tells a re-plan changed course), the chunked
hop/delivery schedule, parity payloads folded in hop order and billed per
hop, and ``pipeline_records``.  The attempt ladder, the source veto and
the commit step (parity minting and replica retention as one journal
record, ``records``, meters) are the inherited ones.

Failure ladder:

1. any aborted hop or delivery transfer kills the in-flight attempt
   (partial work unwinds; nothing was committed);
2. under a :class:`~repro.faults.retry.RetryPolicy` the next attempt
   re-plans the pipeline against current liveness and routes around the
   dead node (a re-plan that changed the route is counted in
   :class:`~repro.pipeline.metrics.PipelineMetrics`);
3. when every attempt dies, the stripe falls back to the inherited
   download-and-encode operation — ``super().encode_stripe``: the same
   object, so the same planner, rng, data plane, meters and ``records``
   list, under its own retry ladder — and the fallback is recorded.

Parity is only ever committed after every transfer of an attempt
succeeded, and payload synthesis is deterministic per block, so a
retried or fallen-back stripe commits byte-identical parity: the chaos
tests pin "never wrong, never partial".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Tuple

from repro.cluster.topology import NodeId
from repro.core.parity import EncodingPlanner
from repro.core.stripe import Stripe
from repro.erasure.codec import CodeParams
from repro.faults.retry import RetryExhausted
from repro.hdfs.encoder import StripeEncoder
from repro.hdfs.namenode import NameNode
from repro.pipeline.gfstream import pipelined_parity
from repro.pipeline.metrics import PipelineMetrics
from repro.pipeline.planner import PipelinePlan, plan_pipeline
from repro.sim.engine import Simulator
from repro.sim.metrics import OpsDelta
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


class PipelinedEncoder(StripeEncoder):
    """Runs the pipelined encoding operation for stripes.

    Args:
        sim, network, namenode, planner: As for
            :class:`~repro.hdfs.encoder.StripeEncoder` (hop transfers ride
            the same links the download encoder uses; the planner produces
            the commit half of each pipeline plan).
        code: The ``(n, k)`` stripe geometry.
        metrics: Pipeline metrics collector (created when omitted).
        chunk_count: Chunks each block is pipelined as; higher values
            overlap more stages at more per-transfer events.
        **engine: The remaining :class:`StripeEncoder` keywords, with two
            readings of their own here: ``compute_bandwidth`` is the
            *per-hop* fold throughput, and with a ``data_plane`` parity
            payloads are computed by :func:`pipelined_parity` in hop
            order (byte-identical to the whole-stripe codec), each hop's
            GF work billed to the hop's node.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        namenode: NameNode,
        planner: EncodingPlanner,
        code: CodeParams,
        metrics: Optional[PipelineMetrics] = None,
        chunk_count: int = 4,
        **engine,
    ) -> None:
        if chunk_count < 1:
            raise ValueError(f"chunk_count must be >= 1, got {chunk_count}")
        super().__init__(sim, network, namenode, planner, **engine)
        self.code = code
        self.metrics = metrics if metrics is not None else PipelineMetrics()
        self.chunk_count = chunk_count
        self.pipeline_records: List[PipelinedStripe] = []

    # ------------------------------------------------------------------
    def encode_stripe(
        self, stripe: Stripe, encoder_node: Optional[NodeId] = None
    ) -> Generator:
        """Encode one sealed stripe (generator; run inside a process).

        ``encoder_node`` — the map task's node — is advisory only: the
        pipeline route follows the replicas.  It is forwarded to the
        download-and-encode fallback, which pins its download target
        with it.

        Returns:
            The :class:`~repro.hdfs.encoder.EncodedStripe` record.
        """
        state = {"signature": None}
        try:
            record = yield from self._retrying(
                lambda __: self._chain_attempt(stripe, state),
                f"pipeline stripe {stripe.stripe_id}",
            )
            return record
        except RetryExhausted:
            self.metrics.record_fallback()
            start = self.sim.now
            record = yield from super().encode_stripe(stripe, encoder_node)
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

    # ------------------------------------------------------------------
    def _plan(self, stripe: Stripe) -> PipelinePlan:
        """The route over currently usable replicas (the inherited veto)."""
        return plan_pipeline(
            self.namenode.topology,
            self.namenode.block_store,
            stripe,
            self.planner,
            source_ok=self._source_ok,
        )

    def _chain_attempt(self, stripe: Stripe, state: dict) -> Generator:
        """One pipeline attempt: re-plan against current liveness, stream
        the chain, then commit through the inherited commit step."""
        start = self.sim.now
        plan = self._plan(stripe)
        signature = plan.signature()
        if state["signature"] is not None and signature != state["signature"]:
            self.metrics.record_replan()
        state["signature"] = signature
        yield from self._stream_chain(plan)

        # Every transfer succeeded: compute real parity bytes (billed per
        # hop), then commit.  Payload synthesis is deterministic per
        # block, so a retried attempt recomputes identical bytes.
        parity_payloads = None
        if self.data_plane is not None:
            parity_payloads = self._pipelined_payloads(stripe, plan)
        record = self._commit(
            stripe, plan.commit, start, parity_payloads, plan.cross_rack_hops
        )
        self.pipeline_records.append(PipelinedStripe(
            stripe_id=stripe.stripe_id,
            tail_node=plan.tail_node,
            hop_nodes=tuple(hop.node for hop in plan.hops),
            start_time=start,
            finish_time=self.sim.now,
            cross_rack_hops=plan.cross_rack_hops,
            cross_rack_deliveries=plan.cross_rack_deliveries,
            chunks=self.chunk_count,
            fallback=False,
        ))
        self.metrics.record_stripe()
        return record

    def _stream_chain(self, plan: PipelinePlan) -> Generator:
        """Move one attempt's bytes: every hop and delivery transfer.

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
