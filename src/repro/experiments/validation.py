"""Experiment B.1 (Figure 12, Table I): simulator validation.

The paper validates its CSIM simulator against the physical testbed.  We
have no physical testbed, so validation here means two things (documented
as a substitution in DESIGN.md):

1. **Analytic validation** — with an idle network, every transfer time is
   exactly ``size / bottleneck_bandwidth``; write response times and
   single-stripe encode times must match closed-form expectations.
2. **Cross-mode consistency** (the spirit of Figure 12/Table I) — the
   testbed-mode drivers (Section V-A) and a plain re-simulation of the
   same scenario must produce matching encoded-stripes-vs-time curves and
   write response times within a small tolerance, across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

from repro.cluster.topology import ClusterTopology
from repro.erasure.codec import CodeParams
from repro.experiments.config import PolicyName, TestbedConfig
from repro.experiments.runner import build_cluster, mean
from repro.experiments.testbed import run_write_during_encoding


@dataclass(frozen=True)
class AnalyticCheck:
    """One validation row: measured vs expected time."""

    name: str
    measured: float
    expected: float

    @property
    def relative_error(self) -> float:
        """``|measured - expected| / expected``."""
        return abs(self.measured - self.expected) / self.expected


def validate_write_path(
    config: Optional[TestbedConfig] = None, seed: int = 0
) -> AnalyticCheck:
    """An idle-network write must take exactly ``hops * size / bw``.

    The testbed write pipeline is master -> replica 1 -> replica 2 (two
    sequential 64 MB hops at 1 Gb/s): about 1.07 s, matching the ~1.4 s the
    real testbed reports once its protocol overheads are included.
    """
    config = config if config is not None else TestbedConfig()
    code = CodeParams(10, 8)
    topology = ClusterTopology.testbed(config.num_racks, config.bandwidth)
    setup = build_cluster(
        PolicyName.RR,
        topology,
        code,
        config.scheme(),
        seed,
        disk=config.disk,
        block_size=config.block_size,
    )
    master = setup.network.add_external("master")

    def one_write() -> Generator:
        yield from setup.client.write_block(writer_node=master)

    setup.sim.process(one_write())
    setup.sim.run()
    measured = setup.write_stats.mean()
    expected = config.replicas * config.block_size / config.bandwidth
    return AnalyticCheck("write-response-idle", measured, expected)


def validate_single_stripe_encode(
    code: Optional[CodeParams] = None,
    config: Optional[TestbedConfig] = None,
    seed: int = 0,
) -> AnalyticCheck:
    """An idle-network EAR stripe encode must match its closed form.

    On the single-node-rack testbed all ``k`` downloads are local disk
    reads (sequential on one disk) and the ``n - k`` parity uploads run in
    parallel but share the encoder's egress NIC:

        T = k * size / disk_read_bw + (n - k) * size / bw.
    """
    code = code if code is not None else CodeParams(10, 8)
    config = config if config is not None else TestbedConfig()
    if config.disk is None:
        raise ValueError("the testbed validation requires the disk model")
    topology = ClusterTopology.testbed(config.num_racks, config.bandwidth)
    setup = build_cluster(
        PolicyName.EAR,
        topology,
        code,
        config.scheme(),
        seed,
        disk=config.disk,
        block_size=config.block_size,
    )
    master = setup.network.add_external("master")

    def write_then_encode() -> Generator:
        while not setup.namenode.sealed_stripes():
            yield from setup.client.write_block(writer_node=master)
        stripe = setup.namenode.sealed_stripes()[0]
        yield from setup.encoder.encode_stripe(stripe)

    setup.sim.process(write_then_encode())
    setup.sim.run()
    record = setup.encoder.records[0]
    size = config.block_size
    expected = (
        code.k * size / config.disk.read_bandwidth
        + code.num_parity * size / config.bandwidth
    )
    return AnalyticCheck("ear-stripe-encode-idle", record.duration, expected)


@dataclass(frozen=True)
class ConsistencyCheck:
    """Cross-seed reproduction of Experiment A.2 (Table I's structure)."""

    policy: str
    rt_without_encoding: float
    rt_with_encoding: float
    encoding_time: float


def table1_rows(
    seeds=(0, 1, 2),
    config: Optional[TestbedConfig] = None,
    code: Optional[CodeParams] = None,
) -> List[ConsistencyCheck]:
    """Table I's structure: write RTs with and without background encoding.

    Runs Experiment A.2 per policy and averages over seeds; the "without
    encoding" column is the pre-encoding window, the "with" column the
    encoding window.
    """
    rows: List[ConsistencyCheck] = []
    for policy in PolicyName.PAPER:
        results = [
            run_write_during_encoding(policy, code, config, seed)
            for seed in seeds
        ]
        rows.append(
            ConsistencyCheck(
                policy=policy,
                rt_without_encoding=mean(
                    r.write_rt_before for r in results if r.write_rt_before
                ),
                rt_with_encoding=mean(
                    r.write_rt_during for r in results if r.write_rt_during
                ),
                encoding_time=mean(r.encoding_time for r in results),
            )
        )
    return rows


def encoded_stripes_curves(
    config: Optional[TestbedConfig] = None,
    code: Optional[CodeParams] = None,
    seed: int = 0,
) -> Dict[str, List[Tuple[float, int]]]:
    """Figure 12's curves: cumulative encoded stripes vs time per policy."""
    from repro.experiments.testbed import run_raw_encoding

    curves: Dict[str, List[Tuple[float, int]]] = {}
    for policy in PolicyName.PAPER:
        result = run_raw_encoding(
            policy, code if code is not None else CodeParams(10, 8), config, seed
        )
        curves[policy] = list(result.timeline)
    return curves
