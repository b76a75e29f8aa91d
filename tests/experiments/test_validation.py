"""Experiment B.1: analytic validation of the simulator."""

import pytest

from repro.erasure.codec import CodeParams
from repro.experiments.config import TestbedConfig
from repro.experiments.validation import (
    encoded_stripes_curves,
    table1_rows,
    validate_single_stripe_encode,
    validate_write_path,
)

SMALL = TestbedConfig().scaled(12)


class TestAnalyticChecks:
    def test_write_path_exact(self):
        check = validate_write_path(SMALL)
        assert check.relative_error < 1e-9
        # Two 64 MB hops at 1 Gb/s: ~1.07 s.
        assert check.expected == pytest.approx(2 * 64 * 2**20 / 125e6)

    def test_single_stripe_encode_exact(self):
        check = validate_single_stripe_encode(config=SMALL)
        assert check.relative_error < 1e-9

    def test_encode_validation_requires_disk(self):
        from dataclasses import replace

        with pytest.raises(ValueError):
            validate_single_stripe_encode(config=replace(SMALL, disk=None))


class TestTableOne:
    def test_rows_structure_and_direction(self):
        rows = table1_rows(seeds=(0,), config=SMALL)
        by_policy = {row.policy: row for row in rows}
        assert list(by_policy) == ["rr", "ear"]
        for row in rows:
            # Encoding load inflates write response times (Table I).
            assert row.rt_with_encoding > row.rt_without_encoding
        # EAR encodes faster than RR.
        assert (
            by_policy["ear"].encoding_time < by_policy["rr"].encoding_time
        )


class TestFigure12:
    def test_curves_reach_stripe_count(self):
        curves = encoded_stripes_curves(config=SMALL, seed=0)
        for policy, curve in curves.items():
            assert curve[-1][1] == SMALL.num_stripes
        # EAR finishes earlier.
        assert curves["ear"][-1][0] < curves["rr"][-1][0]
