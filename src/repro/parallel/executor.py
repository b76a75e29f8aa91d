"""Deterministic sweep executor: shard trials across a process pool.

The contract is byte-identity with the sequential order: ``map_trials``
returns results in spec order, every trial seeds itself from its spec, and
trials share nothing — so where (and in what order) they physically run
cannot change the numbers.  Three guard rails keep that contract honest:

* ``workers=0`` is the **oracle path** — a plain in-process loop, the
  exact code a pool worker runs;
* setting ``REPRO_PARALLEL_CHECK=1`` (or ``check=True``) makes every
  parallel map re-run the whole sweep through the oracle and assert the
  results are equal, raising :class:`ParallelMismatch` otherwise;
* a trial whose worker failed is retried once before the sweep gives up.

With a :class:`~repro.parallel.cache.ResultCache` attached, fingerprints
are consulted before any execution and only dirty trials run; cache hits
and fresh results are indistinguishable by construction (the differential
check covers the cached path too).
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.parallel.cache import ResultCache
from repro.parallel.spec import TrialSpec
from repro.parallel.worker import TrialOutcome, execute_trial, merge_ops
from repro.sim.metrics import PERF, measure_ops

#: Environment variable enabling the inline differential mode.
CHECK_ENV = "REPRO_PARALLEL_CHECK"

#: Extra attempts for a trial whose worker *failed* (raised or died).
#: Deterministic failures fail again and surface as :class:`TrialError`;
#: the retry exists for environmental casualties (OOM-killed worker,
#: broken pipe).
RETRIES = 1


class TrialError(RuntimeError):
    """A trial failed (after exhausting the executor's retries)."""

    def __init__(self, spec: TrialSpec, message: str) -> None:
        super().__init__(f"trial {spec.label} failed: {message}")
        self.spec = spec


class ParallelMismatch(AssertionError):
    """The parallel path diverged from the sequential oracle."""


@dataclass
class SweepReport:
    """Accounting for one :meth:`SweepExecutor.map_trials` call."""

    total: int = 0
    cache_hits: int = 0
    executed: int = 0
    retries: int = 0
    uncached: int = 0
    check_passed: Optional[bool] = None

    def summary(self) -> str:
        """One-line progress summary for CLI echo."""
        parts = [
            f"{self.total} trials",
            f"{self.cache_hits} cached",
            f"{self.executed} executed",
        ]
        if self.retries:
            parts.append(f"{self.retries} retried")
        if self.check_passed is not None:
            parts.append(
                "differential check ok"
                if self.check_passed
                else "differential check FAILED"
            )
        return ", ".join(parts)


def _values_equal(got: Any, want: Any) -> bool:
    if got == want:
        return True
    # Equal-by-construction objects without __eq__ still match by pickle.
    try:
        return pickle.dumps(got) == pickle.dumps(want)
    except (pickle.PicklingError, TypeError, AttributeError):
        return False  # unpicklable and not == — genuinely unequal


def _pool_context() -> multiprocessing.context.BaseContext:
    # fork reuses the parent's imported modules — far cheaper per worker
    # and the parent has already imported every experiment module.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # a platform without fork
        return multiprocessing.get_context("spawn")


class SweepExecutor:
    """Maps independent trials, optionally across a process pool.

    Args:
        workers: Pool size; ``0`` runs everything in-process (the oracle).
        cache: Optional :class:`ResultCache`; hits skip execution.
        check: Force the differential mode on/off; ``None`` defers to the
            ``REPRO_PARALLEL_CHECK`` environment variable.
    """

    def __init__(
        self,
        workers: int = 0,
        cache: Optional[ResultCache] = None,
        check: Optional[bool] = None,
    ) -> None:
        if workers < 0:
            raise ValueError("workers cannot be negative")
        self.workers = workers
        self.cache = cache
        self._check = check
        #: Accounting of the most recent :meth:`map_trials` call.
        self.last_report: Optional[SweepReport] = None

    # ------------------------------------------------------------------
    @property
    def check_enabled(self) -> bool:
        """Whether the inline differential mode is active."""
        if self._check is not None:
            return self._check
        return os.environ.get(CHECK_ENV, "") == "1"

    def map_trials(self, specs: Sequence[TrialSpec]) -> List[Any]:
        """Run every trial; return results in spec order.

        Raises:
            TrialError: When a trial fails after its retry.
            ParallelMismatch: In differential mode, when the parallel
                results (cache hits included) differ from a fresh
                sequential run.
        """
        specs = list(specs)
        report = SweepReport(total=len(specs))
        self.last_report = report
        results: List[Any] = [None] * len(specs)
        fingerprints: Dict[int, str] = {}
        pending: List[int] = []
        for index, spec in enumerate(specs):
            if self.cache is not None and spec.cacheable:
                fingerprint = spec.fingerprint()
                fingerprints[index] = fingerprint
                hit, value = self.cache.get(fingerprint)
                if hit:
                    results[index] = value
                    report.cache_hits += 1
                    continue
            pending.append(index)

        if pending:
            pending_specs = [specs[i] for i in pending]
            # Daemonic pool workers cannot spawn children; a nested sweep
            # degrades to the in-process path (results are identical by
            # contract, only the wall time changes).
            nested = multiprocessing.current_process().daemon
            if self.workers == 0 or nested:
                values = self._map_sequential(pending_specs, report)
            else:
                values = self._map_parallel(pending_specs, report)
            for index, value in zip(pending, values):
                results[index] = value
                if index in fingerprints:
                    stored = self.cache.put(
                        fingerprints[index], value, tag=specs[index].tag
                    )
                    if not stored:
                        report.uncached += 1

        if self.workers > 0 and self.check_enabled:
            self._differential_check(specs, results, report)
        return results

    # ------------------------------------------------------------------
    # Execution paths
    # ------------------------------------------------------------------
    def _map_sequential(
        self, specs: Sequence[TrialSpec], report: SweepReport
    ) -> List[Any]:
        values = []
        for spec in specs:
            outcome = execute_trial(spec)  # bumps PERF directly
            if not outcome.ok:
                raise TrialError(spec, outcome.error or "unknown error")
            report.executed += 1
            values.append(outcome.value)
        return values

    def _map_parallel(
        self, specs: Sequence[TrialSpec], report: SweepReport
    ) -> List[Any]:
        context = _pool_context()
        processes = min(self.workers, len(specs))
        pool = context.Pool(processes=processes)
        try:
            handles = [
                pool.apply_async(execute_trial, (spec,)) for spec in specs
            ]
            values = []
            # Collected in spec order: completions may land out of order,
            # but reassembly (and PERF merging) is order-stable.
            for spec, handle in zip(specs, handles):
                values.append(self._collect(pool, spec, handle, report))
            return values
        finally:
            # terminate (not close): a wedged worker must not block exit.
            pool.terminate()
            pool.join()

    def _collect(
        self,
        pool: Any,
        spec: TrialSpec,
        handle: Any,
        report: SweepReport,
    ) -> Any:
        last_error = "unknown error"
        for attempt in range(1 + RETRIES):
            if attempt > 0:
                report.retries += 1
                handle = pool.apply_async(execute_trial, (spec,))
            try:
                outcome: TrialOutcome = handle.get()
            except Exception as exc:  # worker died / result unpicklable
                last_error = f"{type(exc).__name__}: {exc}"
                continue
            if outcome.ok:
                merge_ops(outcome.ops)
                report.executed += 1
                return outcome.value
            last_error = outcome.error or last_error
        raise TrialError(spec, last_error)

    # ------------------------------------------------------------------
    # Differential mode
    # ------------------------------------------------------------------
    def _differential_check(
        self,
        specs: Sequence[TrialSpec],
        results: Sequence[Any],
        report: SweepReport,
    ) -> None:
        with measure_ops() as measured:
            oracle = self._map_sequential(specs, SweepReport())
        # The oracle re-run is a shadow computation: cancel its counted
        # work so op accounting matches a plain parallel run.
        for name in sorted(measured.ops):
            PERF.bump(name, -measured.ops[name])
        for spec, got, want in zip(specs, results, oracle):
            if not _values_equal(got, want):
                report.check_passed = False
                raise ParallelMismatch(
                    f"trial {spec.label}: parallel result diverged from "
                    f"the sequential oracle\n  parallel:   {got!r}\n"
                    f"  sequential: {want!r}"
                )
        report.check_passed = True


def make_executor(
    workers: Optional[int], cache_dir: Optional[str] = None
) -> SweepExecutor:
    """CLI helper: build an executor from a ``--workers`` value.

    ``None`` (flag absent) runs in-process and never touches the disk,
    whatever ``cache_dir`` says; ``0`` runs in-process with the cache
    active; larger values fan out to a pool.
    """
    cached = workers is not None and cache_dir is not None
    return SweepExecutor(
        workers=workers or 0, cache=ResultCache(cache_dir) if cached else None
    )


def run_grid(
    fn: Callable[..., Any],
    axes: Mapping[Any, Sequence[Any]],
    seeds: Sequence[int],
    fixed: Optional[Mapping[str, Any]] = None,
    tag: str = "",
    executor: Optional[SweepExecutor] = None,
) -> List[Any]:
    """Run ``fn`` over the grid ``axes x seeds``; the one way a sweep runs.

    ``axes`` maps a config key to the values it sweeps; cells run in
    row-major order (first axis outermost, seeds innermost) and the flat
    result list comes back in that order.  A tuple key sweeps several
    config keys together — ``("code_n", "code_k"): [(6, 4), (14, 10)]``.
    ``fixed`` is config shared by every cell; ``tag`` is formatted with
    each cell's config (``"storm.{policy}"``).  Without an ``executor``
    the grid runs in-process and uncached — the oracle path.
    """
    seeds = list(seeds)
    specs: List[TrialSpec] = []
    for cell in itertools.product(*axes.values()):
        config = dict(fixed or {})
        for key, value in zip(axes, cell):
            if isinstance(key, tuple):
                config.update(zip(key, value))
            else:
                config[key] = value
        label = tag.format(**config)
        specs.extend(
            TrialSpec(fn=fn, config=config, seed=seed, tag=label)
            for seed in seeds
        )
    if executor is None:
        executor = SweepExecutor()
    return executor.map_trials(specs)
