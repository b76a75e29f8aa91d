"""The per-stripe encoding operation as a simulation process.

Section II-A's three steps, timed against the network/disk model:

1. the encoder downloads one replica of each of the ``k`` data blocks (in
   parallel; a copy on the encoder itself is a local disk read);
2. it computes the ``n - k`` parity blocks (optional CPU cost) and uploads
   them to their planned nodes (in parallel);
3. it keeps one replica of each data block and deletes the rest (metadata
   only — deletion moves no data).

The placement decisions come from an
:class:`~repro.core.parity.EncodingPlanner`, so the same process serves EAR
(core-rack encoder, matched retention) and RR (random encoder, best-effort
retention).

:class:`StripeEncoder` is the one encode engine: it owns the attempt
ladder (fresh liveness-aware attempts under ``with_retries``), the source
veto and the commit bracket.  :mod:`repro.pipeline.encoder` subclasses it
and contributes only a different transfer schedule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Generator, Iterable, List, Optional, Tuple

from repro.cluster.block import BlockId, BlockStore
from repro.cluster.topology import NodeId
from repro.core.parity import EncodingPlan, EncodingPlanner
from repro.core.stripe import Stripe
from repro.erasure.stream import StreamingDataPlane
from repro.faults.retry import AttemptFactory, RetryPolicy, with_retries
from repro.hdfs.namenode import NameNode
from repro.sim.engine import Simulator
from repro.sim.metrics import FaultMetrics, ThroughputMeter, TimeSeries
from repro.sim.netsim import Network, SourceUnavailable


@dataclass(frozen=True)
class EncodedStripe:
    """Timing record of one completed stripe encoding."""

    stripe_id: int
    encoder_node: NodeId
    start_time: float
    finish_time: float
    cross_rack_downloads: int
    cross_rack_uploads: int

    @property
    def duration(self) -> float:
        """Wall-clock seconds the stripe's encoding took."""
        return self.finish_time - self.start_time


def download_star(
    network: Network,
    store: BlockStore,
    sources: Iterable[Tuple[BlockId, NodeId]],
    sink: NodeId,
) -> Generator:
    """Fan whole blocks in to ``sink``, one parallel transfer per source.

    Step 1 of an encode, and the ``k`` survivor reads of a reconstruction.
    Returns the bytes downloaded (generator return value).
    """
    transfers = []
    total = 0
    for block_id, source in sources:
        size = store.block(block_id).size
        total += size
        transfers.append(
            network.start_transfer(source, sink, size, write_disk=False)
        )
    if transfers:
        yield network.sim.all_of(transfers)
    return total


class StripeEncoder:
    """Runs the encoding operation for stripes.

    Every encode is an attempt planned against current liveness: a down
    pinned encoder node is replaced by a live eligible one (any live node
    when an EAR stripe's core rack is entirely down), and a down or
    corrupted replica is never a download source.

    Args:
        sim: Simulation kernel.
        network: Link/disk model.
        namenode: Metadata server whose block store is updated in step 3.
        planner: Retention/parity planner matching the placement policy.
        compute_bandwidth: Encoder CPU throughput in bytes/second for the
            Reed-Solomon computation; ``None`` makes computation free (the
            paper treats the network as the only bottleneck).
        throughput: Optional meter fed with each stripe's data volume.
        timeline: Optional series receiving stripe completion times
            (Figure 12's "encoded stripes vs time").
        retry: When given, an attempt killed by an aborted transfer or
            unavailable sources is retried under this policy, re-planning
            each time.  ``None`` is fail-fast: exactly one attempt, whose
            mid-flight abort propagates the bare ``TransferAborted`` — no
            backoff, no rng draw, nothing committed.
        fault_metrics: Optional fault collector fed by the retry loop.
        rng: Random source for retry jitter (deterministic default).
        data_plane: Optional :class:`~repro.erasure.stream.StreamingDataPlane`.
            When given, each encode streams the stripe's real block bytes
            through the chunked GF pipeline and commits the resulting parity
            payloads against the block ids ``record_encoding`` mints — the
            simulation then carries verifiable bytes, not just timing.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        namenode: NameNode,
        planner: EncodingPlanner,
        compute_bandwidth: Optional[float] = None,
        throughput: Optional[ThroughputMeter] = None,
        timeline: Optional[TimeSeries] = None,
        retry: Optional[RetryPolicy] = None,
        fault_metrics: Optional[FaultMetrics] = None,
        rng: Optional[random.Random] = None,
        data_plane: Optional[StreamingDataPlane] = None,
    ) -> None:
        if compute_bandwidth is not None and compute_bandwidth <= 0:
            raise ValueError("compute bandwidth must be positive")
        self.sim = sim
        self.network = network
        self.namenode = namenode
        self.planner = planner
        self.compute_bandwidth = compute_bandwidth
        self.throughput = throughput
        self.timeline = timeline
        self.retry = retry
        self.fault_metrics = fault_metrics
        self.rng = rng if rng is not None else random.Random(0)
        self.data_plane = data_plane
        self.records: List[EncodedStripe] = []

    # ------------------------------------------------------------------
    def encode_stripe(
        self, stripe: Stripe, encoder_node: Optional[NodeId] = None
    ) -> Generator:
        """Encode one sealed stripe (generator; run inside a process).

        Args:
            stripe: A sealed stripe from the pre-encoding store.
            encoder_node: Node running the work; the planner's rng picks a
                live eligible one when omitted (core-rack node for EAR,
                any node for RR).

        Returns:
            The :class:`EncodedStripe` record (generator return value).

        Raises:
            RetryExhausted: With a retry policy, when the configured
                attempts all died to transfer aborts or unavailable
                sources.
        """
        record = yield from self._retrying(
            lambda __: self._star_attempt(stripe, encoder_node),
            f"encode stripe {stripe.stripe_id}",
        )
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
    def _retrying(self, attempt: AttemptFactory, label: str) -> Generator:
        """Run fresh ``attempt(index)`` generators under the retry policy."""
        record = yield from with_retries(
            self.sim,
            attempt,
            self.retry,
            self.rng,
            metrics=self.fault_metrics,
            label=label,
        )
        return record

    def _source_ok(self, block_id: BlockId, node: NodeId) -> bool:
        """The veto every attempt plans under: live and not corrupted."""
        return self.network.is_up(node) and not (
            self.namenode.block_store.is_corrupted(block_id, node)
        )

    def _live_encoder(
        self, stripe: Stripe, pinned_node: Optional[NodeId]
    ) -> Tuple[NodeId, bool]:
        """The attempt's encoder node: ``(node, degraded)``.

        A live pinned node is kept; otherwise the planner's rng draws a
        live eligible node, or any live node when none is eligible.
        ``degraded`` means the eligible set (the EAR core rack) is down
        and planning must allow a foreign encoder.
        """
        down = self.network.down_nodes
        topology = self.namenode.topology
        if pinned_node is not None and pinned_node not in down:
            degraded = stripe.core_rack is not None and down.issuperset(
                topology.nodes_in_rack(stripe.core_rack)
            )
            return pinned_node, degraded
        eligible = [
            n for n in self.planner.eligible_encoder_nodes(stripe)
            if n not in down
        ]
        if eligible:
            return self.planner.rng.choice(eligible), False
        anywhere = [n for n in topology.node_ids() if n not in down]
        if not anywhere:
            first = next(iter(topology.node_ids()))
            raise SourceUnavailable(first, first, first)
        return self.planner.rng.choice(anywhere), True

    def _star_attempt(
        self, stripe: Stripe, pinned_node: Optional[NodeId]
    ) -> Generator:
        """One download-and-encode attempt (steps 1-3 of the module doc)."""
        start = self.sim.now
        encoder_node, degraded = self._live_encoder(stripe, pinned_node)
        plan = self.planner.plan(
            stripe,
            encoder_node=encoder_node,
            allow_foreign_encoder=True if degraded else None,
            source_ok=self._source_ok,
        )
        store = self.namenode.block_store

        # Step 1: parallel downloads of the k data blocks.
        data_bytes = yield from download_star(
            self.network, store, plan.sources.items(), encoder_node
        )

        # Step 2: compute parity, then parallel uploads.  With a data plane
        # attached the parity bytes are real: the stripe's block payloads
        # are streamed chunk-at-a-time through the GF pipeline.  Payload
        # synthesis is deterministic per block, so a retried attempt
        # recomputes identical bytes (idempotent).
        parity_payloads = None
        if self.data_plane is not None:
            parity_payloads = self.data_plane.encode_stripe(stripe, store)
        if self.compute_bandwidth is not None:
            yield self.sim.timeout(data_bytes / self.compute_bandwidth)
        uploads = [
            self.network.start_transfer(
                encoder_node, node_id, self.namenode.block_size,
                read_disk=False,
            )
            for node_id in plan.parity_nodes
        ]
        if uploads:
            yield self.sim.all_of(uploads)

        return self._commit(
            stripe, plan, start, parity_payloads, plan.cross_rack_downloads
        )

    def _commit(
        self,
        stripe: Stripe,
        plan: EncodingPlan,
        start: float,
        parity_payloads: Optional[List[bytes]],
        cross_rack_downloads: int,
    ) -> EncodedStripe:
        """Step 3, once every transfer of an attempt has succeeded.

        The only place an encode becomes metadata: ``record_encoding``
        (retention + parity, one journal bracket), the parity bytes, the
        record, the meters.  ``cross_rack_downloads`` is what the
        attempt's schedule pulled across racks.
        """
        parity_blocks = self.namenode.record_encoding(stripe, plan)
        if parity_payloads is not None:
            self.data_plane.commit_parity(parity_blocks, parity_payloads)
        record = EncodedStripe(
            stripe_id=stripe.stripe_id,
            encoder_node=plan.encoder_node,
            start_time=start,
            finish_time=self.sim.now,
            cross_rack_downloads=cross_rack_downloads,
            cross_rack_uploads=plan.cross_rack_uploads,
        )
        self.records.append(record)
        if self.throughput is not None:
            store = self.namenode.block_store
            self.throughput.record(self.sim.now, sum(
                store.block(block_id).size for block_id in stripe.block_ids
            ))
        if self.timeline is not None:
            self.timeline.record(self.sim.now, record.stripe_id)
        return record
