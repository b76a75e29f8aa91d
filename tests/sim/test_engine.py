"""DES kernel: ordering, processes, conditions, failures, interrupts."""

import gc
import heapq
import random
import weakref

import pytest

from repro.sim.engine import (
    Event,
    Interrupt,
    SimulationError,
    Simulator,
)


class TestClockAndOrdering:
    def test_timeouts_fire_in_order(self):
        sim = Simulator()
        log = []

        def proc(name, delay):
            yield sim.timeout(delay)
            log.append((name, sim.now))

        sim.process(proc("late", 5.0))
        sim.process(proc("early", 1.0))
        sim.process(proc("mid", 3.0))
        sim.run()
        assert log == [("early", 1.0), ("mid", 3.0), ("late", 5.0)]

    def test_fifo_at_equal_times(self):
        sim = Simulator()
        log = []

        def proc(name):
            yield sim.timeout(1.0)
            log.append(name)

        for name in "abc":
            sim.process(proc(name))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_run_until_pauses(self):
        sim = Simulator()
        log = []

        def proc():
            for __ in range(4):
                yield sim.timeout(1.0)
                log.append(sim.now)

        sim.process(proc())
        sim.run(until=2.0)
        assert log == [1.0, 2.0]
        assert sim.now == 2.0
        sim.run()
        assert log == [1.0, 2.0, 3.0, 4.0]

    def test_run_until_with_empty_queue_advances_clock(self):
        sim = Simulator()
        sim.run(until=9.0)
        assert sim.now == 9.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(-1)

    def test_negative_delay_rejected_after_a_timeout_fired(self):
        sim = Simulator()
        sim.timeout(1.0)
        sim.run()
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_nan_delay_rejected(self):
        # NaN fails every comparison, so a ``delay < 0`` guard lets it
        # through to heap-order arbitrarily and poison ``sim.now``.
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(float("nan"))
        sim.timeout(1.0)
        sim.run()
        # Still rejected once a timeout has fired, and nothing is queued.
        with pytest.raises(SimulationError):
            sim.timeout(float("nan"))
        with pytest.raises(SimulationError):
            sim.timeout(-1)
        assert sim.peek() is None

    def test_peek_and_run_until(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(2.0)

        sim.process(proc())
        assert sim.peek() == 0.0  # process bootstrap event
        sim.run(until=0.0)
        assert sim.peek() == 2.0
        sim.run(until=2.0)
        assert sim.peek() is None


class TestEventQueueContract:
    """The kernel's total order is ``(time, seq)``, nothing else."""

    def test_pops_follow_time_then_seq_like_reference_heapq(self):
        delays = (5.0, 1.0, 3.0, 1.0, 2.0, 0.0, 3.0, 1.0)
        sim = Simulator()
        fired = []
        reference = []
        for seq, delay in enumerate(delays):
            sim.timeout(delay, value=seq).add_callback(
                lambda event: fired.append((sim.now, event.value))
            )
            heapq.heappush(reference, (delay, seq))
        sim.run()
        assert fired == [heapq.heappop(reference) for __ in delays]

    def test_run_until_is_inclusive_at_the_limit(self):
        sim = Simulator()
        fired = []
        for delay in (1.0, 2.0):
            sim.timeout(delay, value=delay).add_callback(
                lambda event: fired.append(event.value)
            )
        sim.run(until=1.0)
        assert fired == [1.0]
        assert sim.now == 1.0
        assert sim.peek() == 2.0
        sim.run(until=1.0)  # nothing else is due at the limit
        assert fired == [1.0]

    def test_earlier_event_scheduled_after_partial_run_fires_first(self):
        sim = Simulator()
        fired = []

        def note(event):
            fired.append((event.value, sim.now))

        sim.timeout(100.0, value="late").add_callback(note)
        sim.run(until=5.0)
        assert fired == [] and sim.now == 5.0
        sim.timeout(1.0, value="early").add_callback(note)
        sim.run()
        assert fired == [("early", 6.0), ("late", 100.0)]

    @staticmethod
    def _seeded_trace(seed):
        sim = Simulator()
        rng = random.Random(seed)
        trace = []

        def worker(name):
            for __ in range(50):
                yield sim.timeout(rng.choice((0.25, 0.5, 1.0))
                                  * rng.randrange(1, 20))
                trace.append((name, sim.now))

        for name in range(40):
            sim.process(worker(name))
        sim.run()
        return trace

    @pytest.mark.parametrize("seed", [0, 7])
    def test_seeded_forty_process_trace_is_stable(self, seed):
        # rng draws happen *inside* processes, so any ordering divergence
        # cascades — equality here means the interleaving is identical.
        first = self._seeded_trace(seed)
        assert len(first) == 40 * 50
        assert first == self._seeded_trace(seed)


class TestProcessSemantics:
    def test_return_value_propagates(self):
        sim = Simulator()

        def inner():
            yield sim.timeout(1.0)
            return 42

        results = []

        def outer():
            value = yield from inner()
            results.append(value)

        sim.process(outer())
        sim.run()
        assert results == [42]

    def test_process_is_awaitable_event(self):
        sim = Simulator()

        def child():
            yield sim.timeout(2.0)
            return "done"

        log = []

        def parent():
            value = yield sim.process(child())
            log.append((value, sim.now))

        sim.process(parent())
        sim.run()
        assert log == [("done", 2.0)]

    def test_yield_non_event_raises(self):
        sim = Simulator()

        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run()

    def test_timeout_value(self):
        sim = Simulator()
        got = []

        def proc():
            value = yield sim.timeout(1.0, value="payload")
            got.append(value)

        sim.process(proc())
        sim.run()
        assert got == ["payload"]

    def test_yield_already_triggered_event(self):
        sim = Simulator()
        log = []

        def proc():
            ev = sim.event()
            ev.succeed("early")
            value = yield ev
            log.append((value, sim.now))

        sim.process(proc())
        sim.run()
        assert log == [("early", 0.0)]

    def test_non_generator_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.process(lambda: None)

    def test_is_alive(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)

        p = sim.process(proc())
        assert p.is_alive
        sim.run()
        assert not p.is_alive


class TestEvents:
    def test_double_trigger_rejected(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_requires_exception(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.event().fail("not an exception")

    def test_callback_after_processed_still_runs(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed("v")
        sim.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        sim.run()
        assert seen == ["v"]

    def test_fired_timeout_keeps_its_value(self):
        # Every timeout is its own object: one that fired is never handed
        # out again, so its fields stay readable.
        sim = Simulator()
        first = sim.timeout(1.0, value="a")
        sim.run()
        second = sim.timeout(1.0, value="b")
        sim.run()
        assert second is not first
        assert first.processed and first.value == "a"
        assert second.value == "b"


class TestLateSubscription:
    def test_late_add_callback_runs_on_next_drain(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed("done")
        sim.run()
        assert ev.processed
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == []  # deferred, not synchronous
        sim.run()
        assert seen == ["done"]

    def test_late_subscribers_fire_in_fifo_order(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed()
        sim.run()
        order = []
        for tag in range(6):
            ev.add_callback(lambda __, tag=tag: order.append(tag))
        sim.run()
        assert order == list(range(6))

    def test_yield_already_processed_event_resumes(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed("late")
        sim.run()
        seen = []

        def proc():
            value = yield ev
            seen.append((sim.now, value))

        sim.process(proc())
        sim.run()
        assert seen == [(0.0, "late")]


class TestConditions:
    def test_all_of_waits_for_all(self):
        sim = Simulator()
        log = []

        def child(delay, value):
            yield sim.timeout(delay)
            return value

        def parent():
            values = yield sim.all_of(
                [sim.process(child(3.0, "a")), sim.process(child(1.0, "b"))]
            )
            log.append((values, sim.now))

        sim.process(parent())
        sim.run()
        assert log == [(["a", "b"], 3.0)]

    def test_all_of_empty(self):
        sim = Simulator()
        log = []

        def parent():
            values = yield sim.all_of([])
            log.append(values)

        sim.process(parent())
        sim.run()
        assert log == [[]]

    def test_any_of_returns_first(self):
        sim = Simulator()
        log = []

        def child(delay, value):
            yield sim.timeout(delay)
            return value

        def parent():
            value = yield sim.any_of(
                [sim.process(child(3.0, "slow")), sim.process(child(1.0, "fast"))]
            )
            log.append((value, sim.now))

        sim.process(parent())
        sim.run()
        assert log == [("fast", 1.0)]

    def test_any_of_empty_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.any_of([])


class TestConditionMemory:
    def test_condition_does_not_pin_children(self):
        # Regression: Condition used to keep its children list alive for
        # its own lifetime; at 10^5 children that pinned the whole event
        # population.
        sim = Simulator()

        class TrackedEvent(Event):
            """No __slots__: regains __weakref__ so the test can observe
            collection."""

        children = [TrackedEvent(sim) for __ in range(100_000)]
        refs = [weakref.ref(child) for child in children]
        condition = sim.all_of(children)
        for child in children:
            child.succeed(True)
        del children, child
        sim.run()
        gc.collect()
        assert condition.processed
        assert len(condition.value) == 100_000
        survivors = sum(1 for ref in refs if ref() is not None)
        assert survivors == 0

    def test_condition_values_keep_child_order(self):
        sim = Simulator()
        events = [sim.event() for __ in range(4)]
        condition = sim.all_of(events)
        # Trigger out of order; values must come back in child order.
        for index in (2, 0, 3, 1):
            events[index].succeed(index)
        sim.run()
        assert condition.value == [0, 1, 2, 3]


class TestFailures:
    def test_unhandled_crash_surfaces_at_run(self):
        sim = Simulator()

        def boom():
            yield sim.timeout(1.0)
            raise RuntimeError("kaput")

        sim.process(boom())
        with pytest.raises(RuntimeError, match="kaput"):
            sim.run()

    def test_waiter_sees_crash(self):
        sim = Simulator()
        caught = []

        def boom():
            yield sim.timeout(1.0)
            raise ValueError("inner")

        def waiter():
            try:
                yield sim.process(boom())
            except ValueError as exc:
                caught.append(str(exc))

        sim.process(waiter())
        sim.run()
        assert caught == ["inner"]

    def test_defused_failure_is_silent(self):
        sim = Simulator()

        def boom():
            yield sim.timeout(1.0)
            raise RuntimeError("ignored")

        p = sim.process(boom())
        p.defused = True
        sim.run()  # must not raise

    def test_condition_fails_with_child(self):
        sim = Simulator()
        caught = []

        def boom():
            yield sim.timeout(1.0)
            raise KeyError("child")

        def waiter():
            try:
                yield sim.all_of([sim.process(boom())])
            except KeyError:
                caught.append(True)

        sim.process(waiter())
        sim.run()
        assert caught == [True]


class TestInterrupts:
    def test_interrupt_wakes_process(self):
        sim = Simulator()
        log = []

        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupt as stop:
                log.append((stop.cause, sim.now))

        def interrupter(victim):
            yield sim.timeout(2.0)
            victim.interrupt(cause="wake up")

        victim = sim.process(sleeper())
        sim.process(interrupter(victim))
        sim.run()
        assert log == [("wake up", 2.0)]

    def test_interrupt_dead_process_is_noop(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(1.0)

        p = sim.process(quick())
        sim.run()
        p.interrupt()  # must not raise
        sim.run()

    def test_stale_wakeup_after_interrupt_ignored(self):
        sim = Simulator()
        log = []

        def sleeper():
            try:
                yield sim.timeout(10.0)
            except Interrupt:
                pass
            yield sim.timeout(5.0)  # now waiting on a new event
            log.append(sim.now)

        def interrupter(victim):
            yield sim.timeout(1.0)
            victim.interrupt()

        victim = sim.process(sleeper())
        sim.process(interrupter(victim))
        sim.run()
        # Resumed at t=1, slept 5 more: finishes at 6 (not at 10).
        assert log == [6.0]

    def test_abandoned_timeout_firing_later_does_not_resume(self):
        # The interrupted waiter's 10-second timeout still fires at t=10,
        # while the waiter sleeps on a newer timeout and another process
        # is mid-sleep; its stale subscription must not resume the waiter.
        sim = Simulator()
        log = []

        def first():
            try:
                yield sim.timeout(10.0)
                log.append(("first-stale", sim.now))
            except Interrupt:
                yield sim.timeout(100.0)
                log.append(("first", sim.now))

        def second():
            yield sim.timeout(30.0)
            log.append(("second", sim.now))

        def interrupter(victim):
            yield sim.timeout(1.0)
            victim.interrupt()

        victim = sim.process(first())
        sim.process(interrupter(victim))
        sim.process(second())
        sim.run()
        assert log == [("second", 30.0), ("first", 101.0)]

    def test_interrupt_during_any_of(self):
        sim = Simulator()
        log = []

        def racer():
            try:
                result = yield sim.any_of(
                    [sim.timeout(50.0, value="a"), sim.timeout(80.0, value="b")]
                )
                log.append(("raced", result))
            except Interrupt as stop:
                log.append(("interrupted", stop.cause, sim.now))
            yield sim.timeout(1.0)
            log.append(("after", sim.now))

        def interrupter(victim):
            yield sim.timeout(2.0)
            victim.interrupt(cause="cancel")

        victim = sim.process(racer())
        sim.process(interrupter(victim))
        sim.run()
        # The interrupt wins the race; the AnyOf resolving later (t=50)
        # must not resume the process a second time.
        assert log == [("interrupted", "cancel", 2.0), ("after", 3.0)]
