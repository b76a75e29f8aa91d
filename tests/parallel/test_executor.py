"""SweepExecutor: ordering, retries, killed workers, differential mode."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.parallel.executor import (
    CHECK_ENV,
    RETRIES,
    ParallelMismatch,
    SweepExecutor,
    TrialError,
)
from repro.parallel.spec import TrialSpec
from repro.sim.metrics import measure_ops

from tests.parallel._trials import (
    add_trial,
    counted_trial,
    fail_once_trial,
    failing_trial,
    killed_once_trial,
    pid_trial,
    rng_trial,
)


REPO = Path(__file__).resolve().parents[2]

#: Seconds a child sweep may take before it counts as hung.
CHILD_TIMEOUT = 60

#: A three-trial ``workers=2`` sweep whose middle trial is ``argv[1]``
#: from ``tests.parallel._trials`` (``argv[2]``, if given, its flag path).
KILLED_SWEEP = """
import json, sys
from repro.parallel.executor import SweepExecutor, TrialError
from repro.parallel.spec import TrialSpec
from tests.parallel import _trials

config = {"flag_path": sys.argv[2]} if len(sys.argv) > 2 else {}
specs = [
    TrialSpec(fn=_trials.add_trial, seed=0),
    TrialSpec(fn=getattr(_trials, sys.argv[1]), config=config, seed=1),
    TrialSpec(fn=_trials.add_trial, seed=2),
]
executor = SweepExecutor(workers=2, check=False)
try:
    values = executor.map_trials(specs)
except TrialError as exc:
    print(json.dumps({"failed": exc.spec.label, "error": str(exc)}))
else:
    print(json.dumps(
        {"values": values, "retries": executor.last_report.retries}
    ))
"""


def sweep_in_child(*argv):
    """Run ``KILLED_SWEEP`` in a child interpreter and return its JSON.

    A sweep that hangs fails the test after ``CHILD_TIMEOUT`` seconds; the
    child runs in its own session so its pool workers die with it.
    """
    proc = subprocess.Popen(
        [sys.executable, "-c", KILLED_SWEEP, *argv],
        cwd=REPO, env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"sweep still blocked after {CHILD_TIMEOUT} s")
    assert proc.returncode == 0, err
    return json.loads(out)


def rng_specs(count=6, n=5):
    return [
        TrialSpec(fn=rng_trial, config={"n": n}, seed=seed, tag="t.rng")
        for seed in range(count)
    ]


class TestTrialSpec:
    def test_lambdas_are_rejected(self):
        with pytest.raises(ValueError, match="module-level"):
            TrialSpec(fn=lambda seed: seed)

    def test_cacheable_is_accepted_and_ignored(self):
        # The end-to-end benchmark still passes it.
        spec = TrialSpec(fn=add_trial, seed=4, cacheable=False)
        assert SweepExecutor(workers=0).map_trials([spec]) == [4]


class TestOrdering:
    def test_parallel_matches_sequential_order(self):
        specs = rng_specs()
        sequential = SweepExecutor(workers=0).map_trials(specs)
        parallel = SweepExecutor(workers=4).map_trials(specs)
        assert parallel == sequential

    def test_results_land_at_their_spec_index(self):
        specs = [
            TrialSpec(fn=add_trial, config={"a": 10 * i}, seed=i)
            for i in range(8)
        ]
        values = SweepExecutor(workers=3).map_trials(specs)
        assert values == [10 * i + i for i in range(8)]

    def test_empty_sweep(self):
        executor = SweepExecutor(workers=2)
        assert executor.map_trials([]) == []
        assert executor.last_report.total == 0


class TestOpsAccounting:
    def test_worker_ops_merge_back_exactly(self):
        specs = [
            TrialSpec(fn=counted_trial, config={"bumps": 5}, seed=s)
            for s in range(4)
        ]
        with measure_ops() as sequential:
            SweepExecutor(workers=0).map_trials(specs)
        with measure_ops() as parallel:
            SweepExecutor(workers=2).map_trials(specs)
        assert parallel.ops == sequential.ops
        assert parallel.ops["test.trial_ops"] == 20

    def test_differential_check_does_not_double_count(self):
        specs = [
            TrialSpec(fn=counted_trial, config={"bumps": 5}, seed=s)
            for s in range(3)
        ]
        with measure_ops() as measured:
            SweepExecutor(workers=2, check=True).map_trials(specs)
        assert measured.ops["test.trial_ops"] == 15


class TestFailureHandling:
    def test_deterministic_failure_raises_trial_error(self):
        specs = [TrialSpec(fn=failing_trial, seed=1)]
        for workers in (0, 2):
            with pytest.raises(TrialError, match="doomed"):
                SweepExecutor(workers=workers).map_trials(specs)

    def test_transient_failure_is_retried(self, tmp_path):
        flag = tmp_path / "attempted.flag"
        specs = [
            TrialSpec(
                fn=fail_once_trial,
                config={"flag_path": str(flag)},
                seed=9,
            )
        ]
        executor = SweepExecutor(workers=2)
        assert executor.map_trials(specs) == [9]
        assert executor.last_report.retries == 1
        assert executor.last_report.executed == 1

    def test_exhausted_retries_surface_the_spec(self):
        specs = [TrialSpec(fn=failing_trial, seed=3)]
        executor = SweepExecutor(workers=2)
        with pytest.raises(TrialError) as excinfo:
            executor.map_trials(specs)
        assert excinfo.value.spec is specs[0]
        assert executor.last_report.retries == RETRIES

    def test_killed_worker_is_retried_in_a_fresh_pool(self, tmp_path):
        flag = str(tmp_path / "killed.flag")
        result = sweep_in_child("killed_once_trial", flag)
        specs = [
            TrialSpec(fn=add_trial, seed=0),
            TrialSpec(
                fn=killed_once_trial, config={"flag_path": flag}, seed=1
            ),
            TrialSpec(fn=add_trial, seed=2),
        ]
        # The flag now exists, so the oracle runs the trial unharmed.
        assert result["values"] == SweepExecutor(workers=0).map_trials(specs)
        assert result["retries"] >= 1

    def test_worker_killed_on_every_attempt_raises_trial_error(self):
        result = sweep_in_child("killed_trial")
        assert result["failed"] == "killed_trial[seed=1]"
        assert "BrokenProcessPool" in result["error"]

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SweepExecutor(workers=-1)


class TestDifferentialMode:
    def test_check_passes_for_deterministic_trials(self):
        executor = SweepExecutor(workers=2, check=True)
        executor.map_trials(rng_specs(count=4))
        assert executor.last_report.check_passed is True

    def test_divergence_raises_parallel_mismatch(self):
        specs = [TrialSpec(fn=pid_trial, seed=0)]
        with pytest.raises(ParallelMismatch):
            SweepExecutor(workers=1, check=True).map_trials(specs)

    def test_env_var_enables_the_check(self, monkeypatch):
        monkeypatch.setenv(CHECK_ENV, "1")
        assert SweepExecutor(workers=2).check_enabled
        monkeypatch.delenv(CHECK_ENV)
        assert not SweepExecutor(workers=2).check_enabled
        assert SweepExecutor(workers=2, check=True).check_enabled

    def test_oracle_path_skips_the_check(self):
        executor = SweepExecutor(workers=0, check=True)
        executor.map_trials(rng_specs(count=2))
        assert executor.last_report.check_passed is None
