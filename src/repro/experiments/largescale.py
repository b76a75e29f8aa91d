"""Experiment B.2 (Figure 13): large-scale discrete-event simulations.

A 20-rack x 20-node CFS encodes 1000 pre-replicated stripes with 20
concurrent encoding processes while Poisson write and background streams
(1 request/s each) share the links — the paper's exact setup.  Disks are
not modelled, matching the paper's CSIM simulator (its Topology module
manages link resources only).

Reported metrics, normalised EAR over RR as in Figure 13:

* **encoding throughput** — encoded data volume divided by the encoding
  window (first start to last finish);
* **write throughput** — block size divided by the mean write response
  time during the encoding window (per-request throughput, which is what
  placement actually affects: all arrivals complete under both policies).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Generator, List, Optional, Sequence, Tuple

from repro.cluster.topology import ClusterTopology
from repro.core.stripe import Stripe
from repro.erasure.codec import CodeParams
from repro.experiments.config import LargeScaleConfig, PolicyName
from repro.experiments.runner import (
    build_cluster,
    mean,
    populate_until_sealed,
)
from repro.parallel.executor import SweepExecutor, run_grid
from repro.workloads.background import BackgroundTraffic
from repro.workloads.writes import WriteStream


@dataclass(frozen=True)
class LargeScaleResult:
    """Outcome of one large-scale run."""

    policy: str
    encoding_time: float
    encode_throughput_mb_s: float
    write_throughput_mb_s: Optional[float]
    mean_write_rt: Optional[float]
    cross_rack_downloads: int
    cross_rack_uploads: int
    stripes_encoded: int
    #: Post-encoding relocation activity (only non-zero when the run was
    #: started with ``include_relocation=True``; always zero under EAR).
    relocation_moves: int = 0
    relocation_cross_moves: int = 0


@dataclass(frozen=True)
class NormalisedPoint:
    """EAR-over-RR ratios for one parameter value (a Figure 13 box)."""

    parameter: float
    encode_ratios: Tuple[float, ...]
    write_ratios: Tuple[float, ...]

    @property
    def encode_gain(self) -> float:
        """Mean encoding throughput gain of EAR over RR (fraction)."""
        return mean(self.encode_ratios) - 1.0

    @property
    def write_gain(self) -> float:
        """Mean write throughput gain of EAR over RR (fraction)."""
        return mean(self.write_ratios) - 1.0

    def encode_summary(self):
        """Boxplot statistics of the encode ratios (the paper's Figure 13
        presentation)."""
        from repro.experiments.stats import five_number_summary

        return five_number_summary(self.encode_ratios)


def run_largescale(
    policy_name: str,
    config: Optional[LargeScaleConfig] = None,
    seed: int = 0,
    include_relocation: bool = False,
) -> LargeScaleResult:
    """One large-scale run for one policy.

    Pre-places enough blocks to seal ``config.total_stripes`` stripes
    (instant, no simulated traffic), then runs the write stream, the
    background stream, and the encoding processes concurrently until all
    stripes are encoded.

    Args:
        include_relocation: When True, each encoded stripe is immediately
            checked by the PlacementMonitor and repaired by the BlockMover
            with real simulated traffic — the cost the paper's Experiment
            B.2 excluded ("the simulated performance of RR is actually
            over-estimated").  The encoding window then also covers the
            relocations.
    """
    config = config if config is not None else LargeScaleConfig()
    topology = ClusterTopology(
        nodes_per_rack=config.nodes_per_rack,
        num_racks=config.num_racks,
        intra_rack_bandwidth=config.bandwidth,
        cross_rack_bandwidth=config.cross_rack_bandwidth,
    )
    setup = build_cluster(
        policy_name,
        topology,
        config.code,
        config.scheme(),
        seed,
        disk=None,
        block_size=config.block_size,
        ear_c=config.ear_c,
        ear_target_racks=config.ear_target_racks,
    )
    populate_until_sealed(setup, config.total_stripes)
    sealed = setup.namenode.sealed_stripes()[: config.total_stripes]

    # Deal the stripes to the encoding processes round-robin.
    queues: List[List[Stripe]] = [
        sealed[i :: config.num_encoding_processes]
        for i in range(config.num_encoding_processes)
    ]

    from repro.core.relocation import BlockMover

    mover = (
        BlockMover(topology, config.code, rng=random.Random(seed + 30_003))
        if include_relocation
        else None
    )
    relocation_plans = []

    def encoding_process(stripes: List[Stripe]) -> Generator:
        for stripe in stripes:
            yield from setup.encoder.encode_stripe(stripe)
            if mover is not None:
                plan = yield from setup.raidnode.relocate_if_violating(
                    stripe, mover
                )
                if not plan.is_empty:
                    relocation_plans.append(plan)

    write_stream = WriteStream(
        setup.sim,
        setup.client,
        rate=config.write_rate,
        rng=random.Random(seed + 10_001),
        block_size=config.block_size,
    )
    background = BackgroundTraffic(
        setup.sim,
        setup.network,
        rate=config.background_rate,
        rng=random.Random(seed + 20_002),
        mean_size=config.block_size,
        cross_rack_fraction=config.background_cross_fraction,
    )

    setup.encode_meter.start(setup.sim.now)
    encoders = [
        setup.sim.process(encoding_process(queue)) for queue in queues if queue
    ]
    setup.sim.process(write_stream.run())
    setup.sim.process(background.run())
    all_encoded = setup.sim.all_of(encoders)
    end_box: List[float] = []

    def stop_when_encoded() -> Generator:
        yield all_encoded
        end_box.append(setup.sim.now)
        write_stream.stop()
        background.stop()

    setup.sim.process(stop_when_encoded())
    setup.sim.run()

    encode_end = (
        end_box[0]
        if include_relocation and end_box
        else max(r.finish_time for r in setup.encoder.records)
    )
    window_rt = setup.write_stats.mean_in_window(0.0, encode_end)
    return LargeScaleResult(
        policy=policy_name,
        encoding_time=encode_end,
        encode_throughput_mb_s=setup.encode_meter.throughput_mb_s(),
        write_throughput_mb_s=(
            None if window_rt is None else config.block_size / window_rt / 1e6
        ),
        mean_write_rt=window_rt,
        cross_rack_downloads=sum(
            r.cross_rack_downloads for r in setup.encoder.records
        ),
        cross_rack_uploads=sum(
            r.cross_rack_uploads for r in setup.encoder.records
        ),
        stripes_encoded=len(setup.encoder.records),
        relocation_moves=sum(len(p.moves) for p in relocation_plans),
        relocation_cross_moves=sum(
            p.cross_rack_moves for p in relocation_plans
        ),
    )


def compare_policies(
    config: LargeScaleConfig, seed: int
) -> Tuple[float, float]:
    """EAR/RR (encode, write) throughput ratios for one seed."""
    rr = run_largescale(PolicyName.RR, config, seed)
    ear = run_largescale(PolicyName.EAR, config, seed)
    encode_ratio = ear.encode_throughput_mb_s / rr.encode_throughput_mb_s
    if rr.write_throughput_mb_s and ear.write_throughput_mb_s:
        write_ratio = ear.write_throughput_mb_s / rr.write_throughput_mb_s
    else:
        write_ratio = 1.0
    return encode_ratio, write_ratio


def _normalised_sweep(
    parameters: Sequence[float],
    make_config,
    seeds: Sequence[int],
    executor: Optional[SweepExecutor] = None,
) -> List[NormalisedPoint]:
    """Run ``compare_policies`` over the ``parameters x seeds`` grid.

    Every (parameter, seed) cell is one trial of
    :func:`~repro.parallel.executor.run_grid`, which hands results back
    in grid order whatever the executor, so the regrouped points do not
    depend on where the trials ran.
    """
    seeds = list(seeds)
    flat = run_grid(
        compare_policies,
        axes={"config": [make_config(value) for value in parameters]},
        seeds=seeds,
        tag="largescale.compare",
        executor=executor,
    )
    points = []
    for index, value in enumerate(parameters):
        ratios = flat[index * len(seeds) : (index + 1) * len(seeds)]
        points.append(
            NormalisedPoint(
                parameter=value,
                encode_ratios=tuple(r[0] for r in ratios),
                write_ratios=tuple(r[1] for r in ratios),
            )
        )
    return points


# ----------------------------------------------------------------------
# Figure 13 sweeps
# ----------------------------------------------------------------------
def sweep_k(
    ks: Sequence[int] = (6, 8, 10, 12),
    parity: int = 4,
    base: Optional[LargeScaleConfig] = None,
    seeds: Sequence[int] = range(3),
    executor: Optional[SweepExecutor] = None,
) -> List[NormalisedPoint]:
    """Figure 13(a): vary ``k`` with ``n - k`` fixed at 4."""
    base = base if base is not None else LargeScaleConfig()
    return _normalised_sweep(
        ks,
        lambda k: replace(base, code=CodeParams(int(k) + parity, int(k))),
        seeds,
        executor=executor,
    )


def sweep_m(
    ms: Sequence[int] = (2, 3, 4, 5, 6),
    k: int = 10,
    base: Optional[LargeScaleConfig] = None,
    seeds: Sequence[int] = range(3),
    executor: Optional[SweepExecutor] = None,
) -> List[NormalisedPoint]:
    """Figure 13(b): vary ``n - k`` with ``k`` fixed at 10."""
    base = base if base is not None else LargeScaleConfig()
    return _normalised_sweep(
        ms,
        lambda m: replace(base, code=CodeParams(k + int(m), k)),
        seeds,
        executor=executor,
    )


def sweep_bandwidth(
    gbps: Sequence[float] = (0.2, 0.5, 1.0, 2.0),
    base: Optional[LargeScaleConfig] = None,
    seeds: Sequence[int] = range(3),
    executor: Optional[SweepExecutor] = None,
) -> List[NormalisedPoint]:
    """Figure 13(c): vary the top-of-rack and core link bandwidth."""
    base = base if base is not None else LargeScaleConfig()
    return _normalised_sweep(
        gbps,
        lambda g: replace(base, bandwidth=g * 1e9 / 8),
        seeds,
        executor=executor,
    )


def sweep_write_rate(
    rates: Sequence[float] = (1.0, 2.0, 3.0, 4.0),
    base: Optional[LargeScaleConfig] = None,
    seeds: Sequence[int] = range(3),
    executor: Optional[SweepExecutor] = None,
) -> List[NormalisedPoint]:
    """Figure 13(d): vary the write request arrival rate."""
    base = base if base is not None else LargeScaleConfig()
    return _normalised_sweep(
        rates,
        lambda r: replace(base, write_rate=float(r)),
        seeds,
        executor=executor,
    )


def sweep_rack_tolerance(
    tolerances: Sequence[int] = (1, 2, 3, 4),
    base: Optional[LargeScaleConfig] = None,
    seeds: Sequence[int] = range(3),
    executor: Optional[SweepExecutor] = None,
) -> List[NormalisedPoint]:
    """Figure 13(e): vary EAR's tolerable rack failures (via ``c``).

    Tolerating ``t`` rack failures with an ``(n, k)`` code means at most
    ``c = floor((n - k) / t)`` stripe blocks per rack; EAR then confines
    each stripe to ``ceil(n / c)`` target racks (Section III-D).  RR keeps
    its full ``n - k`` rack tolerance throughout, as in the paper.
    """
    base = base if base is not None else LargeScaleConfig()

    def make_config(t: float) -> LargeScaleConfig:
        c = max(1, base.code.num_parity // int(t))
        return replace(
            base, ear_c=c, ear_target_racks=base.code.min_racks(c)
        )

    return _normalised_sweep(tolerances, make_config, seeds, executor=executor)


def sweep_oversubscription(
    ratios: Sequence[float] = (1.0, 2.0, 4.0, 8.0),
    base: Optional[LargeScaleConfig] = None,
    seeds: Sequence[int] = range(3),
    executor: Optional[SweepExecutor] = None,
) -> List[NormalisedPoint]:
    """Extension sweep: vary the rack uplink over-subscription ratio.

    The paper's premise is that the network core is over-subscribed
    ("cross-rack bandwidth is a scarce resource [6, 9], and is often
    over-subscribed [1, 15]") but its simulator keeps uplinks at full
    speed.  This sweep derates only the rack uplinks — at ratio 8 a rack's
    20 nodes share 1/8 of a node's NIC speed — and shows EAR's advantage
    widening as the premise sharpens.
    """
    base = base if base is not None else LargeScaleConfig()
    return _normalised_sweep(
        ratios,
        lambda r: replace(base, oversubscription=float(r)),
        seeds,
        executor=executor,
    )


def sweep_replicas(
    replica_counts: Sequence[int] = (2, 3, 4, 6, 8),
    base: Optional[LargeScaleConfig] = None,
    seeds: Sequence[int] = range(3),
    executor: Optional[SweepExecutor] = None,
) -> List[NormalisedPoint]:
    """Figure 13(f): vary the replication factor, one rack per replica."""
    base = base if base is not None else LargeScaleConfig()
    return _normalised_sweep(
        replica_counts,
        lambda r: replace(base, replicas=int(r), replica_racks=int(r)),
        seeds,
        executor=executor,
    )
