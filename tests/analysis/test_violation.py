"""Equation (1): closed form vs Monte-Carlo vs flow-graph simulation."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.violation import (
    figure3_table,
    violation_probability,
    violation_probability_flowgraph_mc,
    violation_probability_mc,
)


class TestClosedForm:
    def test_paper_quoted_value(self):
        # Section III-A: "0.97 for k = 12 and R = 16".
        assert violation_probability(16, 12) == pytest.approx(0.97, abs=0.005)

    def test_bounds(self):
        for r in range(5, 40, 3):
            for k in (6, 8, 10, 12):
                f = violation_probability(r, k)
                assert 0.0 <= f <= 1.0

    def test_monotone_decreasing_in_racks(self):
        for k in (6, 8, 10, 12):
            values = [violation_probability(r, k) for r in range(k + 2, 60)]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_monotone_increasing_in_k(self):
        for r in (16, 24, 40):
            values = [violation_probability(r, k) for k in (6, 8, 10, 12)]
            assert values == sorted(values)

    def test_certain_violation_with_too_few_racks(self):
        # k - 1 distinct draws impossible with fewer than k - 1 non-core racks.
        assert violation_probability(5, 6) == 1.0

    def test_trivial_cases(self):
        # k = 1: a single block always satisfies c = 1.
        assert violation_probability(10, 1) == 0.0
        # k = 2: two blocks always span >= 1 distinct rack.
        assert violation_probability(10, 2) == 0.0

    def test_k3_hand_computed(self):
        # k=3, R-1=m: violation iff all three draws equal: m / m^3.
        m = 7
        assert violation_probability(m + 1, 3) == pytest.approx(1 / m**2)

    def test_validation(self):
        with pytest.raises(ValueError):
            violation_probability(1, 3)
        with pytest.raises(ValueError):
            violation_probability(10, 0)


class TestMonteCarlo:
    @pytest.mark.parametrize("num_racks,k", [(16, 12), (20, 10), (30, 6)])
    def test_mc_matches_closed_form(self, num_racks, k):
        rng = random.Random(17)
        estimate = violation_probability_mc(num_racks, k, 30_000, rng)
        exact = violation_probability(num_racks, k)
        assert abs(estimate - exact) < 0.015

    def test_flowgraph_mc_matches_closed_form(self):
        rng = random.Random(23)
        estimate = violation_probability_flowgraph_mc(16, 8, 1200, rng)
        exact = violation_probability(16, 8)
        assert abs(estimate - exact) < 0.05

    def test_trials_validation(self):
        rng = random.Random(1)
        with pytest.raises(ValueError):
            violation_probability_mc(10, 5, 0, rng)
        with pytest.raises(ValueError):
            violation_probability_flowgraph_mc(10, 5, 0, rng)

    @pytest.mark.parametrize(
        "estimator", [violation_probability_mc, violation_probability_flowgraph_mc]
    )
    def test_estimators_reject_zero_k(self, estimator):
        with pytest.raises(ValueError, match="k must be positive"):
            estimator(10, 0, 100, random.Random(1))

    @pytest.mark.parametrize(
        "estimator", [violation_probability_mc, violation_probability_flowgraph_mc]
    )
    def test_estimators_reject_a_single_rack(self, estimator):
        with pytest.raises(ValueError, match="need at least two racks"):
            estimator(1, 3, 100, random.Random(1))

    @given(
        num_racks=st.integers(8, 30),
        k=st.integers(3, 12),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=10, deadline=None)
    def test_property_mc_within_tolerance(self, num_racks, k, seed):
        rng = random.Random(seed)
        estimate = violation_probability_mc(num_racks, k, 4000, rng)
        exact = violation_probability(num_racks, k)
        assert abs(estimate - exact) < 0.05


class TestFigure3Table:
    def test_default_table_shape(self):
        table = figure3_table()
        assert set(table) == {6, 8, 10, 12}
        assert all(len(v) == len(range(14, 41, 2)) for v in table.values())

    def test_rows_decrease(self):
        table = figure3_table(rack_counts=(16, 24, 32), ks=(10,))
        row = table[10]
        assert row[0] > row[1] > row[2]
