"""RetryPolicy math and the with_retries driver."""

import math
import random

import pytest

from repro.faults.retry import (
    DEGRADED_READ_RETRY,
    AttemptTimeout,
    RetryExhausted,
    RetryPolicy,
    with_retries,
)
from repro.sim.engine import Simulator
from repro.sim.metrics import FaultMetrics
from repro.sim.netsim import TransferAborted


def aborted():
    return TransferAborted(0, 1, 1)


class TestRetryPolicy:
    def test_defaults_validate(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 5

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"base_delay": -1.0},
        {"multiplier": 0.5},
        {"jitter": -0.1},
        {"timeout": 0.0},
        # NaN passes every ``<`` test: a NaN ceiling used to remove the
        # cap (``min(x, nan)`` is ``x``) and a NaN jitter to turn it off.
        {"base_delay": math.nan},
        {"max_delay": math.nan},
        {"multiplier": math.nan},
        {"jitter": math.nan},
        {"timeout": math.nan},
    ])
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0, jitter=0.0,
                             max_delay=100.0)
        rng = random.Random(0)
        assert [policy.backoff(i, rng) for i in (1, 2, 3, 4)] == [1, 2, 4, 8]

    def test_backoff_caps_at_max_delay(self):
        policy = RetryPolicy(base_delay=10.0, multiplier=10.0, jitter=0.0,
                             max_delay=25.0)
        rng = random.Random(0)
        assert policy.backoff(3, rng) == 25.0

    def test_jitter_adds_bounded_noise(self):
        policy = RetryPolicy(base_delay=10.0, multiplier=1.0, jitter=0.5)
        rng = random.Random(42)
        for __ in range(50):
            delay = policy.backoff(1, rng)
            assert 10.0 <= delay <= 15.0

    def test_jitter_is_deterministic_per_seed(self):
        policy = RetryPolicy(jitter=0.5)
        a = [policy.backoff(1, random.Random(7)) for __ in range(3)]
        b = [policy.backoff(1, random.Random(7)) for __ in range(3)]
        assert a == b

    def test_backoff_rejects_zero_retry_number(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff(0, random.Random(0))


class TestDegradedReadRetry:
    """The client-facing policy must stay *bounded*: a degraded read is
    served inline, so its worst-case added wait has to be small."""

    def test_attempts_are_bounded(self):
        assert DEGRADED_READ_RETRY.max_attempts == 3

    def test_backoff_is_exponential_and_capped(self):
        flat = RetryPolicy(
            max_attempts=DEGRADED_READ_RETRY.max_attempts,
            base_delay=DEGRADED_READ_RETRY.base_delay,
            multiplier=DEGRADED_READ_RETRY.multiplier,
            max_delay=DEGRADED_READ_RETRY.max_delay,
            jitter=0.0,
        )
        rng = random.Random(0)
        delays = [flat.backoff(i, rng) for i in (1, 2, 3, 4, 5)]
        assert delays[1] == delays[0] * flat.multiplier
        assert max(delays) <= DEGRADED_READ_RETRY.max_delay

    def test_worst_case_inline_wait_stays_small(self):
        # Sum of maximum possible backoffs across the whole budget: the
        # longest a client can be parked between attempts.  A couple of
        # seconds, not the pipeline policy's 60 s ceiling.
        policy = DEGRADED_READ_RETRY
        worst = sum(
            min(
                policy.base_delay * policy.multiplier ** (i - 1),
                policy.max_delay,
            ) * (1 + policy.jitter)
            for i in range(1, policy.max_attempts)
        )
        assert worst < 10.0

    def test_jitter_is_seed_deterministic(self):
        a = [DEGRADED_READ_RETRY.backoff(1, random.Random(3))
             for __ in range(3)]
        b = [DEGRADED_READ_RETRY.backoff(1, random.Random(3))
             for __ in range(3)]
        assert a == b


class TestWithRetries:
    def run(self, attempt_factory, policy, metrics=None, retry_on=None):
        sim = Simulator()
        result, error = [], []

        def driver():
            try:
                kwargs = {"metrics": metrics}
                if retry_on is not None:
                    kwargs["retry_on"] = retry_on
                value = yield from with_retries(
                    sim, attempt_factory, policy, random.Random(0), **kwargs
                )
                result.append(value)
            except Exception as exc:  # noqa: BLE001
                error.append(exc)

        sim.process(driver())
        sim.run()
        return sim, result, error

    def test_first_attempt_success_needs_no_retry(self):
        def attempt(__):
            yield Simulator  # pragma: no cover - replaced below
        def ok(__):
            return "done"
            yield  # makes it a generator

        sim, result, error = self.run(ok, RetryPolicy(jitter=0.0))
        assert result == ["done"]
        assert error == []
        assert sim.now == 0.0

    def test_retries_after_transient_aborts_then_succeeds(self):
        calls = []

        def flaky(attempt):
            calls.append(attempt)
            if attempt < 2:
                raise aborted()
            return "recovered"
            yield

        policy = RetryPolicy(base_delay=1.0, multiplier=2.0, jitter=0.0)
        metrics = FaultMetrics()
        sim, result, error = self.run(flaky, policy, metrics=metrics)
        assert result == ["recovered"]
        assert calls == [0, 1, 2]
        assert sim.now == pytest.approx(3.0)  # backoffs 1 + 2
        assert metrics.counts["retries"] == 2
        assert metrics.counts["aborts"] == 2

    def test_exhaustion_raises_with_last_error(self):
        def hopeless(__):
            raise aborted()
            yield

        policy = RetryPolicy(max_attempts=3, base_delay=1.0, jitter=0.0)
        __, result, error = self.run(hopeless, policy)
        assert result == []
        assert isinstance(error[0], RetryExhausted)
        assert error[0].attempts == 3
        assert isinstance(error[0].last_error, TransferAborted)

    def test_non_retryable_exception_propagates_immediately(self):
        calls = []

        def broken(attempt):
            calls.append(attempt)
            raise KeyError("not transient")
            yield

        __, result, error = self.run(broken, RetryPolicy(jitter=0.0))
        assert calls == [0]
        assert isinstance(error[0], KeyError)

    def test_straggler_attempt_is_killed_and_retried(self):
        calls = []

        def straggles_then_succeeds(attempt):
            calls.append(attempt)
            sim = sims[0]
            if attempt == 0:
                yield sim.timeout(100.0)  # way past the 5 s cap
                raise AssertionError("straggler should have been killed")
            yield sim.timeout(1.0)
            return "fast"

        sims = []
        sim = Simulator()
        sims.append(sim)
        result, error = [], []
        policy = RetryPolicy(timeout=5.0, base_delay=1.0, jitter=0.0)
        metrics = FaultMetrics()

        def driver():
            try:
                value = yield from with_retries(
                    sim, straggles_then_succeeds, policy, random.Random(0),
                    metrics=metrics,
                )
                result.append(value)
            except Exception as exc:  # noqa: BLE001
                error.append(exc)

        sim.process(driver())
        sim.run()
        assert result == ["fast"]
        assert calls == [0, 1]
        # 5 s straggler kill + 1 s backoff + 1 s fast attempt.
        assert metrics.counts["stragglers"] == 1

    def test_all_attempts_straggle_raises_attempt_timeout(self):
        sim = Simulator()
        error = []

        def forever(__):
            yield sim.timeout(1000.0)

        policy = RetryPolicy(max_attempts=2, timeout=1.0, base_delay=1.0,
                             jitter=0.0)

        def driver():
            try:
                yield from with_retries(sim, forever, policy, random.Random(0))
            except RetryExhausted as exc:
                error.append(exc)

        sim.process(driver())
        sim.run()
        assert isinstance(error[0].last_error, AttemptTimeout)

    def test_custom_retry_on_tuple(self):
        calls = []

        def flaky(attempt):
            calls.append(attempt)
            if attempt == 0:
                raise OSError("transient-ish")
            return "ok"
            yield

        policy = RetryPolicy(base_delay=1.0, jitter=0.0)
        __, result, __e = self.run(flaky, policy, retry_on=(OSError,))
        assert result == ["ok"]
        assert calls == [0, 1]


class TestWithoutPolicy:
    """``policy=None``: exactly one attempt, inline in the caller."""

    def drive(self, make_attempt):
        sim = Simulator()
        spawned = []
        spawn = sim.process
        sim.process = lambda gen: spawned.append(gen) or spawn(gen)
        result, error = [], []

        def driver():
            try:
                value = yield from with_retries(
                    sim, make_attempt(sim), None, random.Random(0)
                )
                result.append(value)
            except Exception as exc:  # noqa: BLE001
                error.append(exc)

        sim.process(driver())
        sim.run()
        # The driver is the only process: the attempt ran inside it.
        assert len(spawned) == 1
        return sim, result, error

    def test_return_value_passes_through(self):
        calls = []

        def make_attempt(sim):
            def attempt(index):
                calls.append(index)
                yield sim.timeout(3.0)
                return "done"
            return attempt

        sim, result, error = self.drive(make_attempt)
        assert calls == [0]
        assert (result, error) == (["done"], [])
        assert sim.now == 3.0

    def test_exception_propagates_unwrapped_after_one_attempt(self):
        calls = []
        boom = TransferAborted(1, 2, 2)

        def make_attempt(sim):
            def attempt(index):
                calls.append(index)
                raise boom
                yield  # makes it a generator
            return attempt

        sim, result, error = self.drive(make_attempt)
        assert calls == [0]
        assert result == []
        assert error == [boom]  # the very object, not RetryExhausted
        assert sim.now == 0.0
