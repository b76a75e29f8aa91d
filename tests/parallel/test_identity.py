"""Acceptance: parallel sweeps are byte-identical to sequential runs.

Covers two figure sweeps (Figure 13's ``sweep_k``, Figures 14/15's
load-balance studies).
"""

import pytest

from repro.erasure.codec import CodeParams
from repro.experiments.config import LargeScaleConfig
from repro.experiments.largescale import sweep_k
from repro.experiments.loadbalance import (
    LoadBalanceConfig,
    read_balance,
    storage_balance,
)
from repro.parallel.executor import SweepExecutor

SMALL = LargeScaleConfig().scaled(4)  # 80 stripes
#: An (n, k) = (6, 4) code fits the small 8-rack test cluster (EAR needs
#: >= n racks at c=1); the paper-scale (14, 10) needs 14+ racks.
TINY_LB = LoadBalanceConfig(
    num_racks=8, nodes_per_rack=4, code=CodeParams(6, 4)
)


class TestFigureSweepIdentity:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_sweep_k_parallel_equals_sequential(self, seed):
        sequential = sweep_k(ks=(6, 10), base=SMALL, seeds=(seed,))
        parallel = sweep_k(
            ks=(6, 10),
            base=SMALL,
            seeds=(seed,),
            executor=SweepExecutor(workers=4, check=True),
        )
        assert parallel == sequential

    @pytest.mark.parametrize("seed", [0, 1])
    def test_storage_balance_parallel_equals_sequential(self, seed):
        sequential = storage_balance(
            num_blocks=300, runs=3, config=TINY_LB, seed=seed
        )
        parallel = storage_balance(
            num_blocks=300,
            runs=3,
            config=TINY_LB,
            seed=seed,
            executor=SweepExecutor(workers=4, check=True),
        )
        assert parallel == sequential

    @pytest.mark.parametrize("seed", [0, 1])
    def test_read_balance_parallel_equals_sequential(self, seed):
        sequential = read_balance(
            file_sizes=(1, 10), runs=3, config=TINY_LB, seed=seed
        )
        parallel = read_balance(
            file_sizes=(1, 10),
            runs=3,
            config=TINY_LB,
            seed=seed,
            executor=SweepExecutor(workers=4, check=True),
        )
        assert parallel == sequential

