"""Deterministic parallel sweep execution with a fingerprinted cache.

Public surface::

    TrialSpec       one picklable, content-addressed trial
    SweepExecutor   maps trials across a pool; spec-order reassembly
    ResultCache     on-disk CRC-checked cache keyed by fingerprint
    run_grid        trial fn x named axes x seeds -> specs -> map_trials
    make_executor   CLI helper turning a --workers value into an executor

The package-wide invariant: ``map_trials`` output is byte-identical for
``workers=0``, ``workers=N``, and a warm cache.  See
``docs/architecture.md`` ("Parallel sweeps & result cache").
"""

from repro.parallel.cache import DEFAULT_CACHE_DIR, CacheStats, ResultCache
from repro.parallel.codec import CacheCodecError, decode_value, encode_value
from repro.parallel.executor import (
    CHECK_ENV,
    ParallelMismatch,
    SweepExecutor,
    SweepReport,
    TrialError,
    make_executor,
    run_grid,
)
from repro.parallel.fingerprint import (
    FingerprintError,
    canonical,
    canonical_json,
    code_salt,
    fingerprint_document,
)
from repro.parallel.spec import TrialSpec
from repro.parallel.worker import TrialOutcome, execute_trial, merge_ops

__all__ = [
    "CHECK_ENV",
    "DEFAULT_CACHE_DIR",
    "CacheCodecError",
    "CacheStats",
    "FingerprintError",
    "ParallelMismatch",
    "ResultCache",
    "SweepExecutor",
    "SweepReport",
    "TrialError",
    "TrialOutcome",
    "TrialSpec",
    "canonical",
    "canonical_json",
    "code_salt",
    "decode_value",
    "encode_value",
    "execute_trial",
    "fingerprint_document",
    "make_executor",
    "merge_ops",
    "run_grid",
]
