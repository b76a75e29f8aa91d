"""run_grid: the one way a sweep becomes trials — order, config, identity."""

import pytest

from repro.parallel import SweepExecutor, TrialError, run_grid
from repro.pipeline.headtohead import pipeline_trial
from repro.recovery.headtohead import storm_trial

from ._trials import echo_trial, failing_trial


class _SpecRecorder:
    """Stands in for an executor; hands back the specs it was given."""

    def map_trials(self, specs):
        return list(specs)


class TestGridShape:
    def test_cells_are_row_major_with_seeds_innermost(self):
        results = run_grid(
            echo_trial, {"a": (1, 2), "b": ("x", "y")}, seeds=(0, 1)
        )
        assert [(r["a"], r["b"], r["seed"]) for r in results] == [
            (a, b, seed)
            for a in (1, 2) for b in ("x", "y") for seed in (0, 1)
        ]

    def test_tuple_key_sweeps_several_config_keys_together(self):
        results = run_grid(
            echo_trial,
            {("label", "n", "k"): (("rs", 6, 4), ("big", 14, 10))},
            seeds=(3,),
        )
        assert results == [
            {"seed": 3, "label": "rs", "n": 6, "k": 4},
            {"seed": 3, "label": "big", "n": 14, "k": 10},
        ]

    def test_fixed_config_reaches_every_cell_and_tag_is_formatted(self):
        specs = run_grid(
            echo_trial, {"policy": ("rr", "ear")}, seeds=range(2),
            fixed={"scenario": "rack_loss"},
            tag="storm.{scenario}.{policy}",
            executor=_SpecRecorder(),
        )
        assert [(s.tag, s.seed) for s in specs] == [
            ("storm.rack_loss.rr", 0), ("storm.rack_loss.rr", 1),
            ("storm.rack_loss.ear", 0), ("storm.rack_loss.ear", 1),
        ]
        assert all(s.fn is echo_trial for s in specs)
        assert all(s.config["scenario"] == "rack_loss" for s in specs)

    def test_no_seeds_is_an_empty_sweep(self):
        assert run_grid(echo_trial, {"a": (1, 2)}, seeds=()) == []

    def test_without_an_executor_the_grid_runs_in_process(self):
        # The default path surfaces a failing trial the way any executor
        # does: as a TrialError naming the trial.
        with pytest.raises(TrialError, match="doomed trial"):
            run_grid(failing_trial, {}, seeds=(0,))


class TestWorkersIdentity:
    """workers=2 equals workers=0 element by element, for both trials."""

    @pytest.mark.parametrize(
        "fn, axes, fixed",
        [
            (
                storm_trial,
                {
                    ("code_label", "code_n", "code_k"): (("rs_6_4", 6, 4),),
                    "policy": ("ear", "recovery"),
                },
                {"scenario": "chaos", "num_racks": 8, "num_stripes": 2},
            ),
            (
                pipeline_trial,
                {"contender": ("rr", "ear", "pipeline")},
                {"num_racks": 6, "num_stripes": 4},
            ),
        ],
        ids=["storm_trial", "pipeline_trial"],
    )
    def test_pooled_equals_in_process(self, fn, axes, fixed):
        in_process = run_grid(
            fn, axes, seeds=(0, 7), fixed=fixed,
            executor=SweepExecutor(workers=0),
        )
        pooled = run_grid(
            fn, axes, seeds=(0, 7), fixed=fixed,
            executor=SweepExecutor(workers=2),
        )
        assert len(pooled) == len(in_process) >= 4
        for got, want in zip(pooled, in_process):
            assert got == want
