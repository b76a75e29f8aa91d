"""Deterministic parallel sweep execution.

Public surface::

    TrialSpec       one picklable trial: callable, config, seed
    SweepExecutor   maps trials across a pool; spec-order reassembly
    run_grid        trial fn x named axes x seeds -> specs -> map_trials

The package-wide invariant: ``map_trials`` output is byte-identical for
``workers=0`` and ``workers=N``.  See ``docs/architecture.md``
("Parallel sweeps").
"""

from repro.parallel.executor import (
    CHECK_ENV,
    ParallelMismatch,
    SweepExecutor,
    SweepReport,
    TrialError,
    run_grid,
)
from repro.parallel.spec import TrialSpec
from repro.parallel.worker import TrialOutcome, execute_trial, merge_ops

__all__ = [
    "CHECK_ENV",
    "ParallelMismatch",
    "SweepExecutor",
    "SweepReport",
    "TrialError",
    "TrialOutcome",
    "TrialSpec",
    "execute_trial",
    "merge_ops",
    "run_grid",
]
