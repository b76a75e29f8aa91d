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
* a trial whose worker failed (raised, or the process died) is retried
  once, in a fresh pool of its own, before the sweep gives up.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
from dataclasses import dataclass
from typing import Any, Callable, List, Mapping, Optional, Sequence

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
    executed: int = 0
    retries: int = 0
    check_passed: Optional[bool] = None

    def summary(self) -> str:
        """One-line progress summary for CLI echo."""
        parts = [f"{self.total} trials", f"{self.executed} executed"]
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


def _run_pool(
    specs: Sequence[TrialSpec], processes: int
) -> List[TrialOutcome]:
    """Run ``specs`` in a fresh pool; one outcome per spec, in spec order."""
    # Imported on first use, so an in-process sweep never loads the pool
    # machinery (about 0.7 MiB of resident memory).
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(processes, mp_context=_pool_context())
    try:
        futures = [pool.submit(execute_trial, spec) for spec in specs]
        outcomes = []
        for future in futures:
            try:
                outcomes.append(future.result())
            except Exception as exc:  # BrokenProcessPool / pickling error
                # A worker that died or sent back an unpicklable result
                # is a failed outcome, for the executor's retry to handle.
                outcomes.append(
                    TrialOutcome(error=f"{type(exc).__name__}: {exc}")
                )
        return outcomes
    finally:
        # Interrupted mid-sweep, trials not yet started must not run.
        pool.shutdown(cancel_futures=True)


class SweepExecutor:
    """Maps independent trials, optionally across a process pool.

    Args:
        workers: Pool size; ``0`` runs everything in-process (the oracle).
        check: Force the differential mode on/off; ``None`` defers to the
            ``REPRO_PARALLEL_CHECK`` environment variable.
    """

    def __init__(
        self,
        workers: int = 0,
        check: Optional[bool] = None,
    ) -> None:
        if workers < 0:
            raise ValueError("workers cannot be negative")
        self.workers = workers
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
                results differ from a fresh sequential run.
        """
        specs = list(specs)
        report = SweepReport(total=len(specs))
        self.last_report = report
        if self.workers and specs:
            results = self._map_parallel(specs, report)
        else:
            results = self._map_sequential(specs, report)
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
        outcomes = _run_pool(specs, min(self.workers, len(specs)))
        values = []
        # Collected in spec order: completions may land out of order,
        # but reassembly (and PERF merging) is order-stable.
        for spec, outcome in zip(specs, outcomes):
            for __ in range(RETRIES):
                if outcome.ok:
                    break
                # A worker death fails every trial its pool still held; a
                # pool of one charges a death to the trial that caused it.
                report.retries += 1
                outcome = _run_pool([spec], 1)[0]
            if not outcome.ok:
                raise TrialError(spec, outcome.error or "unknown error")
            merge_ops(outcome.ops)
            report.executed += 1
            values.append(outcome.value)
        return values

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
    the grid runs in-process — the oracle path.
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
