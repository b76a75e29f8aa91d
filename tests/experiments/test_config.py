"""Experiment configuration dataclasses."""

import pytest

from repro.erasure.codec import CodeParams
from repro.experiments.config import (
    LargeScaleConfig,
    PolicyName,
    TestbedConfig,
)


class TestTestbedConfig:
    def test_paper_defaults(self):
        config = TestbedConfig()
        assert config.num_racks == 12
        assert config.num_stripes == 96
        assert config.num_map_tasks == 12
        assert config.replicas == 2
        assert config.block_size == 64 * 1024 * 1024
        assert config.disk is not None

    def test_scheme(self):
        assert TestbedConfig().scheme().rack_group_sizes() == (1, 1)

    def test_scaled(self):
        scaled = TestbedConfig().scaled(10)
        assert scaled.num_stripes == 10
        assert scaled.num_racks == 12


class TestLargeScaleConfig:
    def test_paper_defaults(self):
        config = LargeScaleConfig()
        assert config.num_racks == 20
        assert config.nodes_per_rack == 20
        assert config.code == CodeParams(14, 10)
        assert config.total_stripes == 1000
        assert config.write_rate == 1.0
        assert config.background_rate == 1.0

    def test_scheme(self):
        assert LargeScaleConfig().scheme().rack_group_sizes() == (1, 2)

    def test_scaled(self):
        scaled = LargeScaleConfig().scaled(5)
        assert scaled.total_stripes == 100
        assert scaled.code == CodeParams(14, 10)


class TestPolicyName:
    def test_all(self):
        assert PolicyName.ALL == ("rr", "ear", "recovery")

    def test_paper_figures_compare_exactly_rr_and_ear(self):
        assert PolicyName.PAPER == ("rr", "ear")
