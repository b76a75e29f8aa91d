"""Experiments C.1-C.2 (Figures 14-15): load-balancing analysis.

Monte-Carlo placement studies on the 20x20 cluster with 3-way replication
(two racks) and (14, 10) coding: per-rack storage shares (C.1) and the read
hotness index H versus file size (C.2), comparing EAR against RR.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.load_balance import hotness_index, rack_replica_shares
from repro.cluster.topology import ClusterTopology
from repro.core.policy import PlacementPolicy, ReplicationScheme
from repro.erasure.codec import CodeParams
from repro.experiments.config import PolicyName
from repro.experiments.runner import make_policy
from repro.parallel.executor import SweepExecutor, run_grid


@dataclass(frozen=True)
class LoadBalanceConfig:
    """The Section V-C setup."""

    num_racks: int = 20
    nodes_per_rack: int = 20
    code: CodeParams = CodeParams(14, 10)
    replicas: int = 3
    replica_racks: int = 2

    def scheme(self) -> ReplicationScheme:
        """The replication scheme implied by the replica settings."""
        return ReplicationScheme(self.replicas, self.replica_racks)


def _policy(
    policy_name: str, config: LoadBalanceConfig, rng: random.Random
) -> PlacementPolicy:
    topology = ClusterTopology.large_scale(
        num_racks=config.num_racks, nodes_per_rack=config.nodes_per_rack
    )
    return make_policy(
        policy_name, topology, config.code, config.scheme(), rng
    )


def _storage_trial(
    policy_name: str,
    config: LoadBalanceConfig,
    num_blocks: int,
    seed: int,
) -> List[float]:
    """One Monte-Carlo storage run — the parallel unit of Figure 14."""
    policy = _policy(policy_name, config, random.Random(seed))
    return rack_replica_shares(policy, num_blocks)


def _read_trial(
    policy_name: str,
    config: LoadBalanceConfig,
    file_blocks: int,
    seed: int,
) -> float:
    """One hotness-index run — the parallel unit of Figure 15.

    ``seed`` is the study seed plus the run index; the file size is
    folded in here so every (size, run) cell draws its own stream.
    """
    rng = random.Random(seed + 1000 * file_blocks)
    return hotness_index(_policy(policy_name, config, rng), file_blocks)


def storage_balance(
    num_blocks: int = 10_000,
    runs: int = 20,
    config: Optional[LoadBalanceConfig] = None,
    seed: int = 0,
    executor: Optional[SweepExecutor] = None,
) -> Dict[str, List[float]]:
    """Figure 14: mean sorted per-rack replica shares per policy.

    The paper uses 10,000 blocks and 10,000 runs; shares land between 4.9%
    and 5.1% for both policies on 20 racks.  ``runs`` trades precision for
    wall-clock and is recorded in EXPERIMENTS.md.

    Each (policy, run) pair is one trial; the per-run shares are averaged
    in run order with the same float arithmetic as
    :func:`repro.analysis.load_balance.storage_balance_study`, so the
    result is byte-identical to that single-loop reference.
    """
    if runs < 1:
        raise ValueError("runs must be positive")
    config = config if config is not None else LoadBalanceConfig()
    flat = iter(run_grid(
        _storage_trial,
        axes={"policy_name": PolicyName.PAPER},
        seeds=range(seed, seed + runs),
        fixed={"config": config, "num_blocks": num_blocks},
        tag="loadbalance.storage.{policy_name}",
        executor=executor,
    ))
    out: Dict[str, List[float]] = {}
    for policy in PolicyName.PAPER:
        accumulated = next(flat)
        for __ in range(runs - 1):
            accumulated = [a + s for a, s in zip(accumulated, next(flat))]
        out[policy] = [a / runs for a in accumulated]
    return out


def read_balance(
    file_sizes: Sequence[int] = (1, 10, 100, 1_000, 10_000),
    runs: int = 20,
    config: Optional[LoadBalanceConfig] = None,
    seed: int = 0,
    executor: Optional[SweepExecutor] = None,
) -> Dict[str, Dict[int, float]]:
    """Figure 15: mean hotness index H per file size per policy.

    Each (policy, size, run) cell is one trial, seeded exactly as
    :func:`repro.analysis.load_balance.read_balance_study` seeds it;
    per-size means are accumulated in run order so the result is
    byte-identical to that single-loop reference.
    """
    if runs < 1:
        raise ValueError("runs must be positive")
    config = config if config is not None else LoadBalanceConfig()
    flat = iter(run_grid(
        _read_trial,
        axes={"policy_name": PolicyName.PAPER, "file_blocks": file_sizes},
        seeds=range(seed, seed + runs),
        fixed={"config": config},
        tag="loadbalance.read.{policy_name}",
        executor=executor,
    ))
    result: Dict[str, Dict[int, float]] = {}
    for policy in PolicyName.PAPER:
        means: Dict[int, float] = {}
        for size in file_sizes:
            total = 0.0
            for __ in range(runs):
                total += next(flat)
            means[size] = total / runs
        result[policy] = means
    return result
