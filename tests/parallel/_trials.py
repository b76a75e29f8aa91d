"""Module-level trial callables for the executor tests.

They live in their own module (not a test file) so pool workers can
unpickle them by qualified name regardless of how pytest imports tests.
"""

from __future__ import annotations

import os
import random
import signal
from typing import Tuple

from repro.sim.metrics import PERF


def add_trial(seed: int, a: int = 0, b: int = 0) -> int:
    return a + b + seed


def rng_trial(seed: int, n: int = 4) -> Tuple[float, ...]:
    rng = random.Random(seed)
    return tuple(rng.random() for __ in range(n))


def counted_trial(seed: int, bumps: int = 3) -> int:
    for __ in range(bumps):
        PERF.bump("test.trial_ops")
    return seed


def failing_trial(seed: int) -> None:
    raise ValueError(f"doomed trial (seed={seed})")


def fail_once_trial(seed: int, flag_path: str = "") -> int:
    """Fails on the first execution, succeeds after (cross-process flag)."""
    if not os.path.exists(flag_path):
        with open(flag_path, "w", encoding="utf-8") as handle:
            handle.write("attempted")
        raise RuntimeError("transient failure")
    return seed


def killed_once_trial(seed: int, flag_path: str = "") -> int:
    """SIGKILLs its own process on the first execution (cross-process flag)."""
    if not os.path.exists(flag_path):
        with open(flag_path, "w", encoding="utf-8") as handle:
            handle.write("attempted")
        os.kill(os.getpid(), signal.SIGKILL)
    return seed


def killed_trial(seed: int) -> int:
    """SIGKILLs its own process every time: run it in pool workers only."""
    os.kill(os.getpid(), signal.SIGKILL)
    return seed


def pid_trial(seed: int) -> int:
    """Deliberately process-dependent — diverges between pool and oracle."""
    return os.getpid()


def echo_trial(seed: int, **config) -> dict:
    """Returns exactly what it was called with."""
    return {"seed": seed, **config}
