"""SweepExecutor: ordering, retries, caching, differential mode."""

import json

import pytest

from repro.parallel.cache import ResultCache
from repro.parallel.executor import (
    CHECK_ENV,
    RETRIES,
    ParallelMismatch,
    SweepExecutor,
    TrialError,
    make_executor,
)
from repro.parallel.spec import TrialSpec
from repro.sim.metrics import measure_ops

from tests.parallel._trials import (
    add_trial,
    counted_trial,
    fail_once_trial,
    failing_trial,
    pid_trial,
    rng_trial,
)


def rng_specs(count=6, n=5):
    return [
        TrialSpec(fn=rng_trial, config={"n": n}, seed=seed, tag="t.rng")
        for seed in range(count)
    ]


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
                cacheable=False,
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

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SweepExecutor(workers=-1)


class TestCacheIntegration:
    def test_warm_run_skips_execution_and_matches_cold(self, tmp_path):
        specs = rng_specs()
        cold = SweepExecutor(workers=2, cache=ResultCache(tmp_path / "c"))
        cold_values = cold.map_trials(specs)
        assert cold.last_report.executed == len(specs)
        warm = SweepExecutor(workers=2, cache=ResultCache(tmp_path / "c"))
        warm_values = warm.map_trials(specs)
        assert warm_values == cold_values
        assert warm.last_report.cache_hits == len(specs)
        assert warm.last_report.executed == 0

    def test_poisoned_entry_is_recomputed(self, tmp_path):
        cache_dir = tmp_path / "c"
        specs = rng_specs(count=3)
        cold = SweepExecutor(workers=0, cache=ResultCache(cache_dir))
        cold_values = cold.map_trials(specs)
        victim = cache_dir / (specs[1].fingerprint() + ".json")
        document = json.loads(victim.read_text())
        document["crc"] ^= 1  # flip one CRC bit
        victim.write_text(json.dumps(document))
        warm = SweepExecutor(workers=0, cache=ResultCache(cache_dir))
        assert warm.map_trials(specs) == cold_values
        assert warm.last_report.cache_hits == 2
        assert warm.last_report.executed == 1
        assert warm.cache.stats().corrupt == 1

    def test_uncacheable_specs_bypass_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        spec = TrialSpec(fn=add_trial, seed=1, cacheable=False)
        executor = SweepExecutor(workers=0, cache=cache)
        executor.map_trials([spec])
        executor.map_trials([spec])
        assert executor.last_report.cache_hits == 0
        assert cache.stats().entries == 0


class TestDifferentialMode:
    def test_check_passes_for_deterministic_trials(self):
        executor = SweepExecutor(workers=2, check=True)
        executor.map_trials(rng_specs(count=4))
        assert executor.last_report.check_passed is True

    def test_check_covers_the_cached_path(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        SweepExecutor(workers=2, cache=cache).map_trials(rng_specs())
        warm = SweepExecutor(workers=2, cache=cache, check=True)
        warm.map_trials(rng_specs())
        assert warm.last_report.cache_hits == 6
        assert warm.last_report.check_passed is True

    def test_divergence_raises_parallel_mismatch(self):
        specs = [TrialSpec(fn=pid_trial, seed=0, cacheable=False)]
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


class TestMakeExecutor:
    def test_none_means_in_process_and_never_cached(self, tmp_path):
        executor = make_executor(None, cache_dir=str(tmp_path / "c"))
        assert executor.workers == 0
        assert executor.cache is None

    def test_zero_workers_in_process(self, tmp_path):
        executor = make_executor(0, cache_dir=str(tmp_path / "c"))
        assert executor.workers == 0
        assert executor.cache is not None

    def test_no_cache_dir_means_no_cache(self):
        executor = make_executor(2)
        assert executor.workers == 2
        assert executor.cache is None
