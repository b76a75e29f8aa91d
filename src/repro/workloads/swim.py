"""SWIM-style synthetic MapReduce workloads (Experiment A.3).

The paper replays 50 jobs synthesised by SWIM from a 600-node Facebook
production trace (2009).  The trace itself is not distributable, so this
module generates jobs with the trace's published *shape*: heavy-tailed
input/shuffle/output sizes where most jobs touch a block or two, a minority
are map-only (no shuffle), and a few jobs move tens of blocks.

A job runs in two phases on the simulated cluster:

1. **map** — one task per input block, scheduled with data locality
   (preferred nodes = the block's replica holders); each map reads its block
   (a local disk read when it landed on a replica) and applies a CPU cost;
2. **shuffle + reduce** — each reducer pulls its partition from every map's
   node, then writes its share of the output back to HDFS through the write
   pipeline, exercising the placement policy under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence

from repro.cluster.block import BlockId
from repro.cluster.topology import NodeId
from repro.hdfs.client import CFSClient
from repro.hdfs.mapreduce import JobTracker, MapReduceJob, MapTask
from repro.sim.engine import Simulator
from repro.sim.netsim import Network
from repro.workloads.seeding import experiment_rng

#: Default CPU processing rate applied to map input (bytes/second).
DEFAULT_COMPUTE_RATE = 200e6


@dataclass
class SwimJob:
    """One synthetic job.

    Attributes:
        job_id: Identifier within the workload.
        input_blocks: HDFS blocks the maps read (written beforehand).
        shuffle_bytes: Total bytes moved from maps to reducers (0 for
            map-only jobs).
        output_bytes: Total bytes the reducers write back to HDFS.
        num_reducers: Reduce task count.
        submit_time: When the job enters the cluster.
    """

    job_id: int
    input_blocks: List[BlockId]
    shuffle_bytes: float
    output_bytes: float
    num_reducers: int
    submit_time: float


@dataclass(frozen=True)
class SwimJobShape:
    """Size description of a job before its input exists."""

    input_blocks: int
    shuffle_bytes: float
    output_bytes: float
    num_reducers: int
    submit_time: float


@dataclass(frozen=True)
class JobRecord:
    """Completion record of one executed job."""

    job_id: int
    submit_time: float
    finish_time: float

    @property
    def runtime(self) -> float:
        """Seconds from submission to the last reducer finishing."""
        return self.finish_time - self.submit_time


class SwimWorkload:
    """Generates and executes a SWIM-like job mix.

    Args:
        rng: Seeded random source; defaults to a fresh generator seeded
            with the experiment seed (keeps replays byte-identical).
        block_size: HDFS block size in bytes.
        mean_interarrival: Mean seconds between job submissions.
        map_only_fraction: Share of jobs with no shuffle/reduce phase
            (Facebook's trace is dominated by small map-only jobs).
    """

    def __init__(
        self,
        rng: Optional[random.Random] = None,
        block_size: int = 64 * 1024 * 1024,
        mean_interarrival: float = 20.0,
        map_only_fraction: float = 0.35,
    ) -> None:
        if not mean_interarrival > 0:
            raise ValueError("mean_interarrival must be positive")
        if not 0 <= map_only_fraction <= 1:
            raise ValueError("map_only_fraction must lie in [0, 1]")
        self.rng = rng if rng is not None else experiment_rng()
        self.block_size = block_size
        self.mean_interarrival = mean_interarrival
        self.map_only_fraction = map_only_fraction

    # ------------------------------------------------------------------
    def generate_shapes(self, num_jobs: int) -> List[SwimJobShape]:
        """Draw job shapes with heavy-tailed sizes.

        Input block counts follow a discretised Pareto (most jobs 1-3
        blocks, occasional tens); shuffle and output scale off the input
        with lognormal ratios, as in SWIM's published Facebook profile.
        """
        shapes: List[SwimJobShape] = []
        clock = 0.0
        for __ in range(num_jobs):
            clock += self.rng.expovariate(1.0 / self.mean_interarrival)
            blocks = min(40, max(1, int(self.rng.paretovariate(1.4))))
            input_bytes = blocks * self.block_size
            if self.rng.random() < self.map_only_fraction:
                shuffle = 0.0
                output = input_bytes * min(1.0, self.rng.lognormvariate(-2.0, 1.0))
            else:
                shuffle = input_bytes * min(2.0, self.rng.lognormvariate(-0.7, 0.8))
                output = shuffle * min(1.5, self.rng.lognormvariate(-0.7, 0.8))
            reducers = max(1, min(8, round(shuffle / self.block_size)))
            shapes.append(
                SwimJobShape(
                    input_blocks=blocks,
                    shuffle_bytes=shuffle,
                    output_bytes=output,
                    num_reducers=reducers,
                    submit_time=clock,
                )
            )
        return shapes

    def materialise(
        self, shapes: Sequence[SwimJobShape], client: CFSClient
    ) -> Generator:
        """Write every job's input data to HDFS (run inside a process).

        Returns:
            The :class:`SwimJob` list (generator return value).
        """
        jobs: List[SwimJob] = []
        for job_id, shape in enumerate(shapes):
            blocks: List[BlockId] = []
            for __ in range(shape.input_blocks):
                result = yield from client.write_block(size=self.block_size)
                blocks.append(result.block.block_id)
            jobs.append(
                SwimJob(
                    job_id=job_id,
                    input_blocks=blocks,
                    shuffle_bytes=shape.shuffle_bytes,
                    output_bytes=shape.output_bytes,
                    num_reducers=shape.num_reducers,
                    submit_time=shape.submit_time,
                )
            )
        return jobs

    def run(
        self,
        sim: Simulator,
        jobs: Sequence[SwimJob],
        job_tracker: JobTracker,
        client: CFSClient,
        network: Network,
        compute_rate: float = DEFAULT_COMPUTE_RATE,
    ) -> Generator:
        """Submit every job at its arrival time; wait for all to finish.

        Returns:
            Per-job :class:`JobRecord` list (generator return value).
        """
        completions = []
        for job in sorted(jobs, key=lambda j: j.submit_time):
            delay = job.submit_time - sim.now
            if delay > 0:
                yield sim.timeout(delay)
            completions.append(
                sim.process(
                    run_swim_job(
                        sim, job, job_tracker, client, network, compute_rate
                    )
                )
            )
        records = yield sim.all_of(completions)
        return list(records)


def run_swim_job(
    sim: Simulator,
    job: SwimJob,
    job_tracker: JobTracker,
    client: CFSClient,
    network: Network,
    compute_rate: float = DEFAULT_COMPUTE_RATE,
) -> Generator:
    """Execute one job: map phase, then shuffle + reduce + output phase.

    Returns:
        A :class:`JobRecord` (generator return value).
    """
    if not compute_rate > 0:
        raise ValueError("compute_rate must be positive")
    submit = sim.now
    namenode = client.namenode

    # ------------------------------------------------------------- maps
    map_tasks: List[MapTask] = []
    for task_id, block_id in enumerate(job.input_blocks):
        replicas = namenode.block_locations(block_id)
        map_tasks.append(
            MapTask(
                task_id=task_id,
                work=_map_body(sim, client, block_id, compute_rate),
                preferred_nodes=tuple(replicas),
            )
        )
    map_results = yield from job_tracker.run_job(
        MapReduceJob(job_id=job_tracker.new_job_id(), tasks=map_tasks)
    )
    map_nodes: List[NodeId] = list(map_results)

    # --------------------------------------------- shuffle and reducers
    if job.shuffle_bytes > 0 or job.output_bytes > 0:
        reduce_tasks: List[MapTask] = []
        per_pair = (
            job.shuffle_bytes / (len(map_nodes) * job.num_reducers)
            if map_nodes and job.shuffle_bytes > 0
            else 0.0
        )
        out_share = job.output_bytes / job.num_reducers
        for task_id in range(job.num_reducers):
            reduce_tasks.append(
                MapTask(
                    task_id=task_id,
                    work=_reduce_body(
                        sim, client, network, map_nodes, per_pair, out_share
                    ),
                )
            )
        yield from job_tracker.run_job(
            MapReduceJob(job_id=job_tracker.new_job_id(), tasks=reduce_tasks)
        )
    return JobRecord(job.job_id, submit, sim.now)


def _map_body(sim: Simulator, client: CFSClient, block_id: BlockId, rate: float):
    def work(node: NodeId) -> Generator:
        yield from client.read_block(block_id, node)
        size = client.namenode.block_store.block(block_id).size
        yield sim.timeout(size / rate)
        return node

    return work


def _reduce_body(
    sim: Simulator,
    client: CFSClient,
    network: Network,
    map_nodes: List[NodeId],
    per_pair: float,
    out_share: float,
):
    def work(node: NodeId) -> Generator:
        if per_pair > 0:
            pulls = [
                network.start_transfer(
                    src, node, per_pair, read_disk=False, write_disk=False
                )
                for src in map_nodes
                if src != node
            ]
            if pulls:
                yield sim.all_of(pulls)
        remaining = out_share
        while remaining > 0:
            chunk = min(remaining, client.namenode.block_size)
            yield from client.write_block(size=int(max(1, chunk)), writer_node=node)
            remaining -= chunk
        return node

    return work
