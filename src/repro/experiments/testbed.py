"""Experiments A.1-A.3 (Section V-A): the 13-machine testbed, simulated.

The testbed is modelled faithfully: 12 single-node racks behind a 1 Gb/s
switch, one external master issuing writes, 64 MB blocks, 2-way replication
over two racks, encoding via a 12-map MapReduce job, and per-node disks
(the encoder's local reads are disk-bound under EAR while RR is
network-bound — the balance behind the paper's 20-120% gains).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.cluster.topology import ClusterTopology
from repro.erasure.codec import CodeParams
from repro.experiments.config import PolicyName, TestbedConfig
from repro.experiments.runner import ClusterSetup, build_cluster, mean
from repro.sim.metrics import ResponseTimeStats
from repro.workloads.background import UdpCrossTraffic
from repro.workloads.swim import JobRecord, SwimWorkload
from repro.workloads.writes import WriteStream


@dataclass(frozen=True)
class EncodingRunResult:
    """Outcome of one raw-encoding run (Experiment A.1)."""

    policy: str
    code: CodeParams
    num_stripes: int
    encoding_time: float
    throughput_mb_s: float
    cross_rack_downloads: int
    cross_rack_uploads: int
    #: (seconds since encoding start, cumulative stripes encoded) pairs —
    #: the Figure 12 curve.
    timeline: Tuple[Tuple[float, int], ...] = ()


@dataclass(frozen=True)
class WriteImpactResult:
    """Outcome of one write-during-encoding run (Experiment A.2)."""

    policy: str
    write_rt_before: Optional[float]
    write_rt_during: Optional[float]
    encoding_time: float
    write_series: Tuple[Tuple[float, float], ...]


def _testbed_setup(
    policy_name: str, config: TestbedConfig, code: CodeParams, seed: int
) -> ClusterSetup:
    topology = ClusterTopology.testbed(
        num_racks=config.num_racks, bandwidth=config.bandwidth
    )
    return build_cluster(
        policy_name,
        topology,
        code,
        config.scheme(),
        seed,
        disk=config.disk,
        block_size=config.block_size,
        slots_per_node=config.slots_per_node,
    )


def _write_stripes(setup: ClusterSetup, num_stripes: int, master: int) -> Generator:
    """Write blocks from the master until ``num_stripes`` stripes seal."""
    store = setup.namenode.pre_encoding_store
    sealed = len(store.sealed_stripes())
    while sealed < num_stripes:
        written = yield from setup.client.write_block(writer_node=master)
        if store.in_sealed_stripe(written.block.block_id):
            sealed += 1


# ----------------------------------------------------------------------
# Experiment A.1 — raw encoding performance (Figure 8)
# ----------------------------------------------------------------------
def run_raw_encoding(
    policy_name: str,
    code: CodeParams,
    config: Optional[TestbedConfig] = None,
    seed: int = 0,
    udp_rate: float = 0.0,
) -> EncodingRunResult:
    """One Figure 8 data point: write stripes, then measure encoding.

    Args:
        policy_name: ``"rr"`` or ``"ear"``.
        code: The ``(n, k)`` code.
        config: Testbed configuration (paper defaults when omitted).
        seed: Random seed (the paper averages five runs).
        udp_rate: Iperf-style UDP cross-traffic per node pair, in
            bytes/second (Figure 8(b) sweeps this; 0 disables it).
    """
    config = config if config is not None else TestbedConfig()
    setup = _testbed_setup(policy_name, config, code, seed)
    master = setup.network.add_external("master")

    setup.sim.process(_write_stripes(setup, config.num_stripes, master))
    setup.sim.run()

    if udp_rate > 0:
        UdpCrossTraffic.testbed_pairs(setup.topology, udp_rate).apply(
            setup.network
        )

    sealed = setup.namenode.sealed_stripes()[: config.num_stripes]
    start = setup.sim.now
    setup.encode_meter.start(start)
    setup.sim.process(
        setup.raidnode.run_encoding(
            setup.job_tracker, sealed, config.num_map_tasks
        )
    )
    setup.sim.run()
    return EncodingRunResult(
        policy=policy_name,
        code=code,
        num_stripes=len(sealed),
        encoding_time=setup.sim.now - start,
        throughput_mb_s=setup.encode_meter.throughput_mb_s(),
        cross_rack_downloads=sum(
            r.cross_rack_downloads for r in setup.encoder.records
        ),
        cross_rack_uploads=sum(
            r.cross_rack_uploads for r in setup.encoder.records
        ),
        timeline=tuple(
            (finish - start, index + 1)
            for index, finish in enumerate(
                sorted(r.finish_time for r in setup.encoder.records)
            )
        ),
    )


def sweep_nk(
    ks: Sequence[int] = (4, 6, 8, 10),
    parity: int = 2,
    seeds: Sequence[int] = range(5),
    config: Optional[TestbedConfig] = None,
) -> Dict[int, Dict[str, float]]:
    """Figure 8(a): mean encoding throughput per (n, k) and policy.

    Returns:
        ``{k: {"rr": MB/s, "ear": MB/s, "gain": fraction}}``.
    """
    results: Dict[int, Dict[str, float]] = {}
    for k in ks:
        code = CodeParams(k + parity, k)
        per_policy = {
            policy: mean(
                run_raw_encoding(policy, code, config, seed).throughput_mb_s
                for seed in seeds
            )
            for policy in PolicyName.PAPER
        }
        per_policy["gain"] = per_policy["ear"] / per_policy["rr"] - 1.0
        results[k] = per_policy
    return results


def sweep_udp(
    rates_mbps: Sequence[float] = (0, 200, 400, 600, 800),
    code: Optional[CodeParams] = None,
    seeds: Sequence[int] = range(5),
    config: Optional[TestbedConfig] = None,
) -> Dict[float, Dict[str, float]]:
    """Figure 8(b): mean encoding throughput vs UDP sending rate.

    Args:
        rates_mbps: UDP rates in Mb/s (converted to bytes/s internally).

    Returns:
        ``{rate_mbps: {"rr": MB/s, "ear": MB/s, "gain": fraction}}``.
    """
    code = code if code is not None else CodeParams(10, 8)
    results: Dict[float, Dict[str, float]] = {}
    for rate in rates_mbps:
        udp = rate * 1e6 / 8
        per_policy = {
            policy: mean(
                run_raw_encoding(
                    policy, code, config, seed, udp_rate=udp
                ).throughput_mb_s
                for seed in seeds
            )
            for policy in PolicyName.PAPER
        }
        per_policy["gain"] = per_policy["ear"] / per_policy["rr"] - 1.0
        results[rate] = per_policy
    return results


# ----------------------------------------------------------------------
# Experiment A.2 — impact of encoding on writes (Figure 9)
# ----------------------------------------------------------------------
def run_write_during_encoding(
    policy_name: str,
    code: Optional[CodeParams] = None,
    config: Optional[TestbedConfig] = None,
    seed: int = 0,
    write_rate: float = 0.5,
    warmup_duration: float = 300.0,
    write_start_times: Optional[List[float]] = None,
) -> WriteImpactResult:
    """One Experiment A.2 run.

    Writes ``96 * k`` blocks (the future stripes), then starts a Poisson
    write stream; after ``warmup_duration`` seconds the encoding job is
    launched while writes continue.  Reports mean write response time
    before vs during encoding and the total encoding time.

    Args:
        write_start_times: Fixed arrival times to replay (the paper records
            run 1's arrivals and replays them), overriding the Poisson
            stream.
    """
    code = code if code is not None else CodeParams(10, 8)
    config = config if config is not None else TestbedConfig()
    setup = _testbed_setup(policy_name, config, code, seed)
    master = setup.network.add_external("master")

    # Phase 0: lay down the stripes to be encoded (not timed).
    setup.sim.process(_write_stripes(setup, config.num_stripes, master))
    setup.sim.run()
    phase0_end = setup.sim.now

    # Phase 1: foreground writes, no encoding yet.
    stream = WriteStream(
        setup.sim,
        setup.client,
        rate=write_rate,
        rng=setup.rng,
        writer_nodes=[master],
    )
    if write_start_times is not None:
        shifted = [phase0_end + t for t in write_start_times]
        setup.sim.process(stream.replay(shifted))
        horizon = max(write_start_times)
    else:
        setup.sim.process(stream.run(duration=warmup_duration * 3))
        horizon = warmup_duration * 3
    setup.sim.run(until=phase0_end + warmup_duration)

    # Phase 2: encoding starts; writes keep flowing.
    sealed = setup.namenode.sealed_stripes()[: config.num_stripes]
    encode_start = setup.sim.now
    setup.encode_meter.start(encode_start)
    encode_done = setup.sim.process(
        setup.raidnode.run_encoding(
            setup.job_tracker, sealed, config.num_map_tasks
        )
    )
    setup.sim.run()
    encode_end = max(
        (r.finish_time for r in setup.encoder.records), default=encode_start
    )

    stats = setup.write_stats
    return WriteImpactResult(
        policy=policy_name,
        write_rt_before=stats.mean_in_window(phase0_end, encode_start),
        write_rt_during=stats.mean_in_window(encode_start, encode_end),
        encoding_time=encode_end - encode_start,
        write_series=tuple(
            (t - phase0_end, lat) for t, lat in stats.series() if t >= phase0_end
        ),
    )


# ----------------------------------------------------------------------
# Experiment A.3 — MapReduce workloads before encoding (Figure 10)
# ----------------------------------------------------------------------
def run_mapreduce_workload(
    policy_name: str,
    num_jobs: int = 50,
    config: Optional[TestbedConfig] = None,
    code: Optional[CodeParams] = None,
    seed: int = 0,
) -> List[JobRecord]:
    """One Experiment A.3 run: SWIM jobs on replicated (pre-encoding) data.

    Returns:
        Per-job completion records; Figure 10 plots the cumulative count of
        completions over time.
    """
    config = config if config is not None else TestbedConfig()
    code = code if code is not None else CodeParams(10, 8)
    setup = _testbed_setup(policy_name, config, code, seed)
    workload_rng = random.Random(seed + 977)
    workload = SwimWorkload(workload_rng, block_size=config.block_size)
    shapes = workload.generate_shapes(num_jobs)

    jobs_box: List = []

    def materialise_then_run() -> Generator:
        jobs = yield from workload.materialise(shapes, setup.client)
        records = yield from workload.run(
            setup.sim, jobs, setup.job_tracker, setup.client, setup.network
        )
        jobs_box.extend(records)

    setup.sim.process(materialise_then_run())
    setup.sim.run()
    return list(jobs_box)


def completion_curve(records: Sequence[JobRecord]) -> List[Tuple[float, int]]:
    """Figure 10's curve: (completion time, cumulative jobs completed)."""
    finished = sorted(r.finish_time for r in records)
    return [(t, i + 1) for i, t in enumerate(finished)]
