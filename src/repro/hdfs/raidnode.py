"""The RaidNode: encoding-job construction and block recovery.

HDFS-RAID's RaidNode coordinates background encoding (Section IV-A): it
pulls stripe metadata from the NameNode, groups stripes into map tasks, and
submits a map-only MapReduce job.  The paper's second HDFS modification makes
each map task encode stripes sharing one core rack and attaches that rack's
nodes as the map's preferred nodes; the third modification flags the job so
the JobTracker never schedules those maps outside the core rack.

The RaidNode also drives recovery of lost blocks — the degraded-read path
whose cross-rack cost motivates the target-racks design of Section III-D.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.cluster.topology import ClusterTopology, NodeId, RackId
from repro.core.relocation import BlockMover, PlacementMonitor, RelocationPlan
from repro.core.stripe import Stripe, StripeState
from repro.faults.retry import RetryPolicy, with_retries
from repro.hdfs.encoder import StripeEncoder, download_star
from repro.hdfs.mapreduce import JobTracker, MapReduceJob, MapTask
from repro.hdfs.namenode import NameNode
from repro.sim.engine import Simulator
from repro.sim.metrics import ResilienceMetrics
from repro.sim.netsim import Network, SourceUnavailable


@dataclass(frozen=True)
class EncodingJobSpec:
    """How an encoding job was carved into map tasks (for inspection)."""

    job_id: int
    stripes_per_task: Tuple[Tuple[int, ...], ...]
    preferred_racks: Tuple[Optional[RackId], ...]


@dataclass(frozen=True)
class RecoveryRecord:
    """Timing/traffic record of one block recovery."""

    block_id: int
    new_node: NodeId
    cross_rack_reads: int
    duration: float


@dataclass(frozen=True)
class DegradedReadRecord:
    """Timing/traffic record of one degraded read (no re-insertion)."""

    block_id: int
    reader_node: NodeId
    cross_rack_reads: int
    duration: float


class RaidNode:
    """Coordinates encoding jobs and block recovery.

    Args:
        sim: Simulation kernel.
        network: Link/disk model.
        namenode: Metadata server.
        encoder: The stripe encoder bound to the active policy's planner.
        rng: Random source (deterministic default — like every other
            simulation component, randomness must come by injection).
        retry: When given, block recovery and degraded reads survive
            transient faults: an aborted survivor download backs off and
            re-plans from an alternate replica source.
        resilience: Optional fault metrics fed by the retry loop.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        namenode: NameNode,
        encoder: StripeEncoder,
        rng: Optional[random.Random] = None,
        retry: Optional[RetryPolicy] = None,
        resilience: Optional[ResilienceMetrics] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.namenode = namenode
        self.encoder = encoder
        self.rng = rng if rng is not None else random.Random(0)
        self.retry = retry
        self.resilience = resilience
        self.job_specs: List[EncodingJobSpec] = []
        self.recoveries: List[RecoveryRecord] = []
        self.degraded_reads: List[DegradedReadRecord] = []

    # ------------------------------------------------------------------
    # Encoding jobs
    # ------------------------------------------------------------------
    def build_encoding_job(
        self,
        job_tracker: JobTracker,
        stripes: Sequence[Stripe],
        num_map_tasks: int,
    ) -> MapReduceJob:
        """Carve sealed stripes into an encoding MapReduce job.

        EAR stripes (which carry core racks) are grouped by core rack; each
        group may be split further to approach ``num_map_tasks`` maps, and
        every map's preferred nodes are its core rack's nodes with the
        restriction flag set.  RR stripes (no core rack) are dealt
        round-robin into unrestricted maps.
        """
        if num_map_tasks < 1:
            raise ValueError("need at least one map task")
        ear_stripes = [s for s in stripes if s.core_rack is not None]
        rr_stripes = [s for s in stripes if s.core_rack is None]

        assignments: List[Tuple[List[Stripe], Optional[RackId]]] = []
        if ear_stripes:
            assignments.extend(
                self._split_by_core_rack(ear_stripes, num_map_tasks)
            )
        if rr_stripes:
            budget = max(1, num_map_tasks - len(assignments))
            for chunk in self._deal(rr_stripes, budget):
                assignments.append((chunk, None))

        tasks: List[MapTask] = []
        for task_id, (chunk, rack) in enumerate(assignments):
            preferred: Tuple[NodeId, ...] = ()
            if rack is not None:
                preferred = tuple(self.namenode.topology.nodes_in_rack(rack))
            tasks.append(
                MapTask(
                    task_id=task_id,
                    work=self._task_body(chunk),
                    preferred_nodes=preferred,
                    restrict_to_preferred=rack is not None,
                )
            )
        job = MapReduceJob(
            job_id=job_tracker.new_job_id(),
            tasks=tasks,
            is_encoding_job=bool(ear_stripes),
        )
        self.job_specs.append(
            EncodingJobSpec(
                job_id=job.job_id,
                stripes_per_task=tuple(
                    tuple(s.stripe_id for s in chunk) for chunk, __ in assignments
                ),
                preferred_racks=tuple(rack for __, rack in assignments),
            )
        )
        return job

    def run_encoding(
        self,
        job_tracker: JobTracker,
        stripes: Sequence[Stripe],
        num_map_tasks: int,
    ) -> Generator:
        """Build and run an encoding job to completion (generator)."""
        job = self.build_encoding_job(job_tracker, stripes, num_map_tasks)
        results = yield from job_tracker.run_job(job)
        return results

    def _task_body(self, chunk: List[Stripe]):
        def work(node: NodeId) -> Generator:
            # Skip stripes already encoded so a re-executed map task (the
            # JobTracker retries crashed attempts) is idempotent: a task
            # that died halfway through its chunk only redoes the rest.
            todo = [s for s in chunk if s.state != StripeState.ENCODED]
            result = yield from self.encoder.encode_stripes(todo, node)
            return result

        return work

    def _split_by_core_rack(
        self, stripes: Sequence[Stripe], num_map_tasks: int
    ) -> List[Tuple[List[Stripe], RackId]]:
        by_rack: Dict[RackId, List[Stripe]] = {}
        for stripe in stripes:
            by_rack.setdefault(stripe.core_rack, []).append(stripe)
        # Distribute the map budget over racks proportionally to their
        # load: one map per rack minimum, and the *total* never exceeds
        # max(num_map_tasks, number of core racks).  Largest-remainder
        # apportionment keeps the sum exact (per-rack rounding used to
        # over-allocate far past the requested task count).
        racks = sorted(by_rack.items())
        total = len(stripes)
        budget = max(num_map_tasks, len(racks))
        shares = {rack: 1 for rack, __ in racks}
        spare = budget - len(racks)
        quotas = [
            (len(group) * (budget / total) - 1, rack) for rack, group in racks
        ]
        # Whole extra maps first, by integer part of each rack's quota...
        for quota, rack in quotas:
            extra = min(int(quota), len(by_rack[rack]) - shares[rack], spare)
            if extra > 0:
                shares[rack] += extra
                spare -= extra
        # ...then the remainders, largest first (rack id breaks ties).
        remainders = sorted(
            ((quota - int(quota), rack) for quota, rack in quotas),
            key=lambda item: (-item[0], item[1]),
        )
        for __, rack in remainders:
            if spare <= 0:
                break
            if shares[rack] < len(by_rack[rack]):
                shares[rack] += 1
                spare -= 1
        assignments: List[Tuple[List[Stripe], RackId]] = []
        for rack, group in racks:
            for chunk in self._deal(group, shares[rack]):
                assignments.append((chunk, rack))
        return assignments

    @staticmethod
    def _deal(items: Sequence, parts: int) -> List[List]:
        parts = max(1, min(parts, len(items)))
        chunks: List[List] = [[] for __ in range(parts)]
        for index, item in enumerate(items):
            chunks[index % parts].append(item)
        return [c for c in chunks if c]

    # ------------------------------------------------------------------
    # Relocation (the PlacementMonitor / BlockMover control loop)
    # ------------------------------------------------------------------
    def relocate_if_violating(
        self, stripe: Stripe, mover: BlockMover
    ) -> Generator:
        """Check one encoded stripe and repair it with real traffic.

        This is the control loop Facebook's HDFS runs periodically
        (Section II-B): the PlacementMonitor detects a rack fault-tolerance
        violation and the BlockMover relocates blocks — each move is a full
        block transfer across the simulated network, i.e. the cross-rack
        cost Experiment B.2 deliberately excluded.

        Returns:
            The executed :class:`~repro.core.relocation.RelocationPlan`
            (empty when the stripe already complies), as the generator's
            return value.
        """
        store = self.namenode.block_store
        if not mover.monitor.is_violating(store, stripe):
            return RelocationPlan(stripe.stripe_id, (), 0)
        plan = mover.plan(store, stripe)
        for move in plan.moves:
            size = store.block(move.block_id).size
            yield from self.network.transfer(
                move.src_node, move.dst_node, size
            )
            store.move_replica(move.block_id, move.src_node, move.dst_node)
        return plan

    # ------------------------------------------------------------------
    # Recovery (degraded reads)
    # ------------------------------------------------------------------
    def recover_block(
        self,
        stripe: Stripe,
        lost_block_id: int,
        new_node: NodeId,
    ) -> Generator:
        """Rebuild one lost block of an encoded stripe onto ``new_node``.

        The recovering node downloads ``k`` surviving blocks of the stripe
        (one per source node) and re-derives the lost block — Section
        III-D's cost model: one block may be local to the rack, the other
        ``k - 1`` arrive across racks when the stripe spans many racks.

        Returns:
            A :class:`RecoveryRecord` (generator return value).
        """
        start = self.sim.now
        cross = yield from self._download_survivors_retrying(
            stripe, lost_block_id, new_node
        )
        store = self.namenode.block_store
        if self.network.disk is not None:
            yield from self.network.disk_write(
                new_node, store.block(lost_block_id).size
            )
        store.add_replica(lost_block_id, new_node)
        record = RecoveryRecord(
            block_id=lost_block_id,
            new_node=new_node,
            cross_rack_reads=cross,
            duration=self.sim.now - start,
        )
        self.recoveries.append(record)
        return record

    def degraded_read(
        self,
        stripe: Stripe,
        lost_block_id: int,
        reader_node: NodeId,
        retry: Optional[RetryPolicy] = None,
    ) -> Generator:
        """Serve a read of a lost block by on-the-fly reconstruction.

        HDFS-RAID answers reads of lost/corrupted blocks without waiting
        for recovery: the reader fetches ``k`` surviving blocks and decodes
        the requested one in memory.  Unlike :meth:`recover_block` the
        rebuilt block is *not* re-inserted.

        Args:
            retry: Per-call override of the node-level retry policy; a
                client with its own latency budget (the degraded-read
                path's bounded inline wait) passes a tighter policy here
                so a blocked read escalates within seconds instead of
                riding the repair pipeline's backoff ceiling.

        Returns:
            A :class:`DegradedReadRecord` (generator return value).
        """
        start = self.sim.now
        cross = yield from self._download_survivors_retrying(
            stripe, lost_block_id, reader_node, retry=retry
        )
        record = DegradedReadRecord(
            block_id=lost_block_id,
            reader_node=reader_node,
            cross_rack_reads=cross,
            duration=self.sim.now - start,
        )
        self.degraded_reads.append(record)
        return record

    def _download_survivors_retrying(
        self,
        stripe: Stripe,
        lost_block_id: int,
        target_node: NodeId,
        retry: Optional[RetryPolicy] = None,
    ) -> Generator:
        """``_download_k_survivors`` under the retry policy, when one is set.

        Every attempt re-runs the survivor selection, so an abort caused by
        a source dying mid-download re-plans from an alternate replica.
        ``retry`` overrides the node-level policy for this call.
        """
        cross = yield from with_retries(
            self.sim,
            lambda __: self._download_k_survivors(
                stripe, lost_block_id, target_node
            ),
            retry if retry is not None else self.retry,
            self.rng,
            metrics=self.resilience,
            label=f"reconstruct block {lost_block_id}",
        )
        return cross

    def _download_k_survivors(
        self, stripe: Stripe, lost_block_id: int, target_node: NodeId
    ) -> Generator:
        """Fetch k surviving blocks of ``stripe`` to ``target_node``.

        Returns the number of cross-rack reads (generator return value).

        Raises:
            RuntimeError: If fewer than ``k`` uncorrupted blocks survive
                anywhere in the metadata (true data loss).
            SourceUnavailable: If enough blocks survive but fewer than
                ``k`` are on endpoints that are currently up (transient —
                retry loops outwait the outage).
        """
        store = self.namenode.block_store
        k = stripe.k
        survivors: List[Tuple[int, NodeId]] = []
        unavailable = 0
        for block_id in stripe.all_block_ids():
            if block_id == lost_block_id:
                continue
            nodes = store.healthy_replica_nodes(block_id)
            if not nodes:
                continue
            up = [n for n in nodes if self.network.is_up(n)]
            if not up:
                unavailable += 1
                continue
            survivors.append((block_id, up[0]))
        if len(survivors) < k:
            if len(survivors) + unavailable >= k:
                raise SourceUnavailable(target_node, target_node, target_node)
            raise RuntimeError(
                f"stripe {stripe.stripe_id} has only "
                f"{len(survivors) + unavailable} surviving blocks; need {k}"
            )
        # Prefer sources close to the target node.
        target_rack = self.namenode.topology.rack_of(target_node)
        survivors.sort(
            key=lambda item: 0
            if self.namenode.topology.rack_of(item[1]) == target_rack
            else 1
        )
        chosen = survivors[:k]
        yield from download_star(self.network, store, chosen, target_node)
        return sum(
            1 for __, source in chosen
            if self.network.is_cross_rack(source, target_node)
        )
