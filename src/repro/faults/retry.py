"""Retry machinery for simulation processes.

A :class:`RetryPolicy` bounds how stubbornly a pipeline fights transient
faults: per-attempt timeout (straggler kill), exponential backoff with
seeded jitter between attempts, and a hard attempt cap.  The
:func:`with_retries` driver runs *fresh* attempt generators so every retry
re-plans against current cluster state — a repair that lost its source to
a node flap picks an alternate replica on the next attempt instead of
hammering the dead one.

All randomness comes from an injected ``random.Random`` so chaos drills
stay bit-identical across runs with the same seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Generator, Optional, Tuple, Type

from repro.sim.engine import Simulator
from repro.sim.metrics import FaultMetrics
from repro.sim.netsim import TransferAborted


class RetryExhausted(RuntimeError):
    """Every allowed attempt failed; carries the final failure.

    Attributes:
        attempts: How many attempts were made.
        last_error: The exception that killed the final attempt.
    """

    def __init__(self, attempts: int, last_error: Optional[BaseException]) -> None:
        super().__init__(f"gave up after {attempts} attempts: {last_error!r}")
        self.attempts = attempts
        self.last_error = last_error


class AttemptTimeout(RuntimeError):
    """An attempt overran the policy's per-attempt timeout (a straggler)."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounds and pacing for retried operations.

    Attributes:
        max_attempts: Total attempts allowed (first try included).
        base_delay: Backoff before the first retry, in seconds.
        multiplier: Backoff growth factor per retry.
        max_delay: Backoff ceiling, in seconds.
        jitter: Extra uniform-random fraction of the delay added on top
            (0.5 means up to +50%), drawn from the injected rng.
        timeout: Per-attempt wall-clock cap; ``None`` disables straggler
            detection and waits for attempts indefinitely.
    """

    max_attempts: int = 5
    base_delay: float = 1.0
    multiplier: float = 2.0
    max_delay: float = 60.0
    jitter: float = 0.5
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if not (self.base_delay >= 0 and self.max_delay >= 0):
            raise ValueError("delays cannot be negative")
        if not self.multiplier >= 1:
            raise ValueError("multiplier must be >= 1")
        if not self.jitter >= 0:
            raise ValueError("jitter cannot be negative")
        if self.timeout is not None and not self.timeout > 0:
            raise ValueError("timeout must be positive when given")

    def backoff(self, retry_number: int, rng: random.Random) -> float:
        """Delay before retry ``retry_number`` (1-based), with jitter.

        The schedule is exponential: ``base_delay * multiplier**(n-1)``
        capped at ``max_delay``, plus a seeded uniform jitter fraction so
        simultaneous retriers de-synchronize deterministically.
        """
        if retry_number < 1:
            raise ValueError("retry_number is 1-based")
        delay = min(
            self.base_delay * self.multiplier ** (retry_number - 1),
            self.max_delay,
        )
        if self.jitter > 0:
            delay += delay * self.jitter * rng.random()
        return delay


#: Bounded decode-retry policy for the degraded-read path: a client
#: blocked on a read should fail over to repair-queue escalation within
#: seconds, not ride out the repair pipeline's 60 s backoff ceiling.
#: Three attempts with 0.25 s -> 0.5 s exponential backoff (2 s cap,
#: +50% seeded jitter) keeps the worst-case inline wait around a second.
DEGRADED_READ_RETRY = RetryPolicy(
    max_attempts=3,
    base_delay=0.25,
    multiplier=2.0,
    max_delay=2.0,
    jitter=0.5,
)


#: Builds a fresh attempt generator; receives the 0-based attempt index.
AttemptFactory = Callable[[int], Generator]


def with_retries(
    sim: Simulator,
    attempt_factory: AttemptFactory,
    policy: Optional[RetryPolicy],
    rng: random.Random,
    retry_on: Tuple[Type[BaseException], ...] = (TransferAborted,),
    metrics: Optional[FaultMetrics] = None,
    label: str = "operation",
) -> Generator:
    """Run attempts until one succeeds (generator; run inside a process).

    Each attempt is a *new* generator from ``attempt_factory`` executed as
    its own process, so a failed attempt's partial work unwinds cleanly
    (transfers release their links) and the next attempt re-plans from
    scratch.  Exceptions not listed in ``retry_on`` propagate immediately.

    With ``policy=None`` nothing is retried: the one attempt runs inline
    in the caller's process and whatever it raises propagates unwrapped.

    Returns:
        The successful attempt's return value (generator return value).

    Raises:
        RetryExhausted: After ``policy.max_attempts`` failed attempts.
    """
    if policy is None:
        result = yield from attempt_factory(0)
        return result
    last_error: Optional[BaseException] = None
    for attempt in range(policy.max_attempts):
        proc = sim.process(attempt_factory(attempt))
        try:
            if policy.timeout is None:
                result = yield proc
                return result
            timer = sim.timeout(policy.timeout)
            yield sim.any_of([proc, timer])
            if proc.triggered:
                # Re-yielding a triggered process returns its value or
                # re-raises its failure into this generator.
                result = yield proc
                return result
            # Straggler: kill the attempt and fall through to the backoff.
            proc.interrupt(f"{label}: attempt {attempt} timed out")
            if metrics is not None:
                metrics.count("stragglers")
            last_error = AttemptTimeout(
                f"{label}: attempt {attempt} overran {policy.timeout}s"
            )
        except retry_on as exc:
            last_error = exc
            if metrics is not None and isinstance(exc, TransferAborted):
                metrics.count("aborts")
        if attempt + 1 < policy.max_attempts:
            if metrics is not None:
                metrics.count("retries")
            yield sim.timeout(policy.backoff(attempt + 1, rng))
    raise RetryExhausted(policy.max_attempts, last_error)
