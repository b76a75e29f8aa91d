"""Experiments C.1-C.2 drivers (scaled)."""

from functools import partial

import pytest

from repro.analysis.load_balance import (
    read_balance_study,
    storage_balance_study,
)
from repro.erasure.codec import CodeParams
from repro.experiments.loadbalance import (
    LoadBalanceConfig,
    _policy,
    read_balance,
    storage_balance,
)


class TestStorageBalance:
    def test_both_policies_balanced(self):
        shares = storage_balance(num_blocks=1500, runs=3)
        assert list(shares) == ["rr", "ear"]
        for policy, curve in shares.items():
            assert len(curve) == 20
            assert sum(curve) == pytest.approx(1.0)
            assert curve[0] < 0.065, policy
            assert curve[-1] > 0.035, policy

    def test_ear_matches_rr_closely(self):
        shares = storage_balance(num_blocks=1500, runs=3)
        for a, b in zip(shares["rr"], shares["ear"]):
            assert abs(a - b) < 0.012


class TestReadBalance:
    def test_hotness_tracks_between_policies(self):
        result = read_balance(file_sizes=(10, 200), runs=3)
        for size in (10, 200):
            assert abs(result["rr"][size] - result["ear"][size]) < 0.05

    def test_hotness_decreases_with_size(self):
        result = read_balance(file_sizes=(10, 500), runs=3)
        for policy in ("rr", "ear"):
            assert result[policy][500] < result[policy][10]


class TestMatchesSingleLoopReference:
    """The per-trial grid equals analysis.*_balance_study bit for bit."""

    TINY = LoadBalanceConfig(
        num_racks=8, nodes_per_rack=4, code=CodeParams(6, 4)
    )

    @pytest.mark.parametrize("seed", [0, 5])
    def test_storage_balance(self, seed):
        got = storage_balance(
            num_blocks=300, runs=3, config=self.TINY, seed=seed
        )
        for policy, shares in got.items():
            assert shares == storage_balance_study(
                partial(_policy, policy, self.TINY), 300, 3, seed=seed
            )

    @pytest.mark.parametrize("seed", [0, 5])
    def test_read_balance(self, seed):
        got = read_balance(
            file_sizes=(1, 10, 100), runs=3, config=self.TINY, seed=seed
        )
        for policy, means in got.items():
            assert means == read_balance_study(
                partial(_policy, policy, self.TINY), (1, 10, 100), 3, seed=seed
            )

    def test_zero_runs_rejected(self):
        with pytest.raises(ValueError, match="runs must be positive"):
            storage_balance(runs=0)
        with pytest.raises(ValueError, match="runs must be positive"):
            read_balance(runs=0)


class TestConfig:
    def test_defaults(self):
        config = LoadBalanceConfig()
        assert config.num_racks == 20
        assert config.scheme().rack_group_sizes() == (1, 2)
