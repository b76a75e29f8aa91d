"""Shared benchmark helpers.

Every benchmark regenerates one table or figure of the paper at a scale
that keeps the whole ``pytest benchmarks/ --benchmark-only`` run in a few
minutes; the paper figures' scales are the ``bench`` entries of
``repro.experiments.artefacts`` and are recorded in EXPERIMENTS.md.
Benchmarks run once (``pedantic`` with a single round) because each
already averages over several seeds internally, exactly as the paper
averages over runs.
"""

from __future__ import annotations


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def emit(title, table):
    """Print a paper-style result table under the benchmark output."""
    print()
    print(f"== {title} ==")
    print(table)
