"""Shared experiment plumbing: cluster assembly and result tables.

``build_cluster`` wires a full simulated stack (kernel, network, NameNode
with the requested policy, client, encoder) from a configuration + seed, so
each experiment driver only expresses its workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.cluster.topology import ClusterTopology
from repro.core.ear import EncodingAwareReplication
from repro.faults.retry import RetryPolicy
from repro.core.policy import PlacementPolicy, ReplicationScheme
from repro.core.random_replication import RandomReplication
from repro.core.stripe import PreEncodingStore
from repro.erasure.codec import CodeParams
from repro.experiments.config import PolicyName, StrategyName
from repro.hdfs.client import CFSClient
from repro.hdfs.encoder import StripeEncoder
from repro.hdfs.mapreduce import JobTracker
from repro.hdfs.namenode import NameNode
from repro.hdfs.raidnode import RaidNode
from repro.sim.engine import Simulator
from repro.sim.metrics import (
    FaultMetrics,
    ResponseTimeStats,
    ThroughputMeter,
    TimeSeries,
)
from repro.sim.netsim import DiskModel, Network


@dataclass
class ClusterSetup:
    """Everything an experiment needs, assembled for one policy + seed."""

    sim: Simulator
    topology: ClusterTopology
    network: Network
    policy: PlacementPolicy
    namenode: NameNode
    client: CFSClient
    encoder: StripeEncoder
    raidnode: RaidNode
    job_tracker: JobTracker
    code: CodeParams
    rng: random.Random
    write_stats: ResponseTimeStats
    encode_meter: ThroughputMeter
    encode_timeline: TimeSeries
    #: The fault collector the encoder and RaidNode retry loops feed.
    metrics: FaultMetrics


def make_policy(
    name: str,
    topology: ClusterTopology,
    code: CodeParams,
    scheme: ReplicationScheme,
    rng: random.Random,
    ear_c: int = 1,
    ear_target_racks: Optional[int] = None,
) -> PlacementPolicy:
    """Instantiate a placement policy by name ("rr", "ear" or "recovery")."""
    if name == PolicyName.RR:
        return RandomReplication(
            topology, scheme=scheme, rng=rng, store=PreEncodingStore(code.k)
        )
    if name == PolicyName.EAR:
        return EncodingAwareReplication(
            topology,
            code,
            scheme=scheme,
            rng=rng,
            c=ear_c,
            num_target_racks=ear_target_racks,
        )
    if name == PolicyName.RECOVERY:
        # Imported here: repro.recovery sits above the experiments layer.
        from repro.recovery.placement import RecoveryAwareReplication

        return RecoveryAwareReplication(
            topology,
            code,
            scheme=scheme,
            rng=rng,
            c=ear_c,
            num_target_racks=ear_target_racks,
        )
    raise ValueError(f"unknown policy {name!r}; choose from {PolicyName.ALL}")


def build_cluster(
    policy_name: str,
    topology: ClusterTopology,
    code: CodeParams,
    scheme: ReplicationScheme,
    seed: int,
    disk: Optional[DiskModel] = None,
    block_size: int = 64 * 1024 * 1024,
    slots_per_node: int = 4,
    ear_c: int = 1,
    ear_target_racks: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    max_task_attempts: Optional[int] = None,
    journal=None,
    strategy: str = StrategyName.DOWNLOAD,
    pipeline_chunks: int = 4,
) -> ClusterSetup:
    """Assemble a ready-to-run simulated cluster for one policy and seed.

    With a ``retry`` policy the stack becomes fault-tolerant end to end:
    the encoder and RaidNode retry aborted transfers under it, and the
    JobTracker schedules health-aware (skipping down endpoints, retrying
    crashed maps — 3 attempts unless ``max_task_attempts`` overrides).
    Without it the stack is fail-fast: an encode is exactly one attempt —
    planned against liveness like any other (a down pinned node is
    replaced, a down or corrupted replica is not a source) — and a
    transfer that aborts mid-flight propagates ``TransferAborted`` with
    nothing committed.

    With a ``journal`` (a :class:`~repro.journal.journal.MetadataJournal`)
    every NameNode-side metadata mutation is write-ahead logged and the
    cluster can be rebuilt crash-consistently via
    :func:`repro.journal.recovery.recover`.

    ``strategy`` selects how encoding moves bytes — exactly one encoder
    object is built either way: ``"download"`` is the paper's
    single-encoder operation (:class:`~repro.hdfs.encoder.StripeEncoder`),
    ``"pipeline"`` its subclass
    :class:`~repro.pipeline.encoder.PipelinedEncoder`, which streams
    partial GF combinations hop-to-hop (``pipeline_chunks`` chunks per
    block) over real bytes and falls back to the inherited
    download-and-encode when its retry ladder exhausts.
    """
    rng = random.Random(seed)
    sim = Simulator()
    network = Network(sim, topology, disk=disk)
    policy = make_policy(
        policy_name, topology, code, scheme, rng,
        ear_c=ear_c, ear_target_racks=ear_target_racks,
    )
    namenode = NameNode(topology, policy, block_size=block_size, journal=journal)
    write_stats = ResponseTimeStats()
    client = CFSClient(sim, network, namenode, stats=write_stats)
    encode_meter = ThroughputMeter()
    encode_timeline = TimeSeries()
    planner = namenode.make_planner(code, rng=rng)
    metrics = FaultMetrics()
    engine = dict(
        throughput=encode_meter,
        timeline=encode_timeline,
        retry=retry,
        fault_metrics=metrics,
        rng=rng,
    )
    if strategy == StrategyName.DOWNLOAD:
        encoder = StripeEncoder(sim, network, namenode, planner, **engine)
    elif strategy == StrategyName.PIPELINE:
        # Imported here: repro.pipeline sits above the experiments layer.
        from repro.erasure.stream import StreamingDataPlane
        from repro.pipeline.encoder import PipelinedEncoder

        encoder = PipelinedEncoder(
            sim, network, namenode, planner,
            code=code,
            chunk_count=pipeline_chunks,
            data_plane=StreamingDataPlane(code, seed=seed),
            **engine,
        )
    else:
        raise ValueError(
            f"unknown strategy {strategy!r}; choose from {StrategyName.ALL}"
        )
    if retry is not None:
        attempts = 3 if max_task_attempts is None else max_task_attempts
        job_tracker = JobTracker(
            sim, topology, slots_per_node=slots_per_node, rng=rng,
            health=network.is_up, max_task_attempts=attempts,
        )
        job_tracker.watch_network(network)
    else:
        job_tracker = JobTracker(
            sim, topology, slots_per_node=slots_per_node, rng=rng
        )
    raidnode = RaidNode(
        sim, network, namenode, encoder, rng=rng,
        retry=retry, fault_metrics=metrics,
    )
    return ClusterSetup(
        sim=sim,
        topology=topology,
        network=network,
        policy=policy,
        namenode=namenode,
        client=client,
        encoder=encoder,
        raidnode=raidnode,
        job_tracker=job_tracker,
        code=code,
        rng=rng,
        write_stats=write_stats,
        encode_meter=encode_meter,
        encode_timeline=encode_timeline,
        metrics=metrics,
    )


def populate_blocks(setup: ClusterSetup, count: int) -> None:
    """Pre-place ``count`` blocks instantly (metadata only, no traffic).

    The large-scale experiments start from already-replicated data, exactly
    like the paper's simulator, so population moves no simulated bytes.
    """
    writers = list(setup.topology.node_ids())
    for __ in range(count):
        writer = setup.rng.choice(writers)
        setup.namenode.allocate_block(writer_node=writer)


def populate_until_sealed(setup: ClusterSetup, num_stripes: int, max_blocks: int = 10_000_000) -> None:
    """Pre-place blocks until ``num_stripes`` stripes have sealed."""
    writers = list(setup.topology.node_ids())
    placed = 0
    store = setup.namenode.pre_encoding_store
    if store is None:
        raise ValueError("the policy maintains no pre-encoding store")
    sealed = len(store.sealed_stripes())
    while sealed < num_stripes:
        if placed >= max_blocks:
            raise RuntimeError("placement did not seal enough stripes")
        writer = setup.rng.choice(writers)
        block, __ = setup.namenode.allocate_block(writer_node=writer)
        placed += 1
        if store.in_sealed_stripe(block.block_id):
            sealed += 1


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean (raises on empty input)."""
    items = list(values)
    if not items:
        raise ValueError("mean of empty sequence")
    return sum(items) / len(items)


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render an aligned text table (benchmark output helper)."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)
