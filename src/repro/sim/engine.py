"""A generator-based discrete-event simulation kernel.

Processes are Python generators that ``yield`` events; the simulator resumes
a process when the yielded event triggers, sending the event's value back
into the generator.  The design follows the classic process-interaction
style of CSIM/SimPy, implemented from scratch:

Example:
    >>> sim = Simulator()
    >>> log = []
    >>> def worker():
    ...     yield sim.timeout(2.0)
    ...     log.append(sim.now)
    >>> _ = sim.process(worker())
    >>> sim.run()
    >>> log
    [2.0]
"""

from __future__ import annotations

import itertools
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.sim.metrics import PERF


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double triggers, yielding non-events, ...)."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    Attributes:
        cause: Arbitrary payload describing why the interrupt happened.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence processes can wait on.

    Events move through three states: *pending* (just created), *triggered*
    (``succeed``/``fail`` called, scheduled on the event queue), and
    *processed* (callbacks have run).  Yielding a processed or triggered
    event resumes the process immediately (at the current simulation time).
    """

    # Simulations allocate one Event per scheduled occurrence, so the
    # per-instance dict is the kernel's dominant allocation; slots keep
    # events small and attribute access direct.  Subclasses outside the
    # kernel may omit __slots__ and regain a dict at their own cost.
    __slots__ = (
        "sim",
        "callbacks",
        "value",
        "_exception",
        "_triggered",
        "_processed",
        "defused",
    )

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        self.value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False
        self._processed = False
        # Set True to acknowledge a failure nobody waits on (suppresses the
        # kernel's unhandled-failure propagation for this event).
        self.defused = False

    @property
    def triggered(self) -> bool:
        """True once succeed() or fail() has been called."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._processed

    @property
    def failed(self) -> bool:
        """True when the event carries an exception instead of a value."""
        return self._exception is not None

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional value."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self.value = value
        # _schedule(0.0, self) spelled out: most events in a run are
        # triggered here.  ``+ 0.0`` keeps the queued time a float even
        # if the clock was handed an int.
        sim = self.sim
        _heappush(sim._queue, (sim._now + 0.0, next(sim._seq), self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception; waiters see it raised."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._triggered = True
        self._exception = exception
        self.sim._schedule(0.0, self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed."""
        if self._processed:
            # Late subscription: run on the next queue drain at current
            # time, after every event already queued for it.
            self.sim.call_soon(lambda __: callback(self))
        else:
            self.callbacks.append(callback)

    def _abandon(self) -> None:
        """The process waiting on this event was interrupted; an event that
        runs work for that one waiter (an inline network flow) stops it."""


class Timeout(Event):
    """An event that triggers after a fixed delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        super().__init__(sim)
        if not delay >= 0:  # also rejects NaN, which no comparison orders
            raise SimulationError(f"negative or NaN timeout delay {delay}")
        self._triggered = True
        self.value = value
        sim._schedule(delay, self)


class Condition(Event):
    """Triggers when all of its child events have been processed.

    The value is a list of the children's values, in the order given.
    A failing child fails the condition immediately.

    Child values are captured *as each child is processed* and the child
    reference dropped immediately: holding every completed child Event
    alive until the condition itself is collected pinned memory on
    10^5-child workloads.
    """

    __slots__ = ("_values", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        children = list(events)
        self._remaining = len(children)
        if self._remaining == 0:
            self._values: List[Any] = []
            self.succeed([])
            return
        self._values = [None] * len(children)
        for index, event in enumerate(children):
            event.add_callback(
                lambda child, index=index: self._on_child(index, child)
            )

    def _on_child(self, index: int, event: Event) -> None:
        if self._triggered:
            return
        if event.failed:
            self.fail(event._exception)  # noqa: SLF001 - kernel internal
            return
        self._values[index] = event.value
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._values)


class AnyOf(Event):
    """Triggers when the first of its child events is processed."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        children = list(events)
        if not children:
            raise SimulationError("AnyOf requires at least one event")
        on_child = self._on_child
        for event in children:
            event.add_callback(on_child)

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)  # noqa: SLF001 - kernel internal
        else:
            self.succeed(event.value)


class Process(Event):
    """A running generator; also an event that triggers when it returns.

    The process's value is the generator's return value.  An uncaught
    exception inside the generator fails the process event (and propagates
    to ``Simulator.run`` if nothing waits on it).
    """

    __slots__ = ("_generator", "_waiting_on", "_resume_callback")

    def __init__(self, sim: "Simulator", generator: Generator) -> None:
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise SimulationError("process() requires a generator")
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        # One bound method for the process's lifetime (a fresh one per
        # yield was the kernel's busiest allocation after events); it is
        # dropped at exit, so a finished process is freed by refcount.
        self._resume_callback: Optional[Callable] = self._resume
        # Kick off on the next queue drain at the current time.
        sim.call_soon(self._resume_callback)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            return
        self.sim.call_soon(
            lambda __: self._resume_with_exception(Interrupt(cause))
        )

    # ------------------------------------------------------------------
    def _resume(self, event: Optional[Event]) -> None:
        if self._triggered:
            return
        if event is not None and event is not self._waiting_on and self._waiting_on is not None:
            return  # stale wake-up after an interrupt redirected the process
        self._waiting_on = None
        try:
            if event is None:
                target = self._generator.send(None)
            elif event._exception is not None:
                target = self._generator.throw(event._exception)
            else:
                target = self._generator.send(event.value)
        except StopIteration as stop:
            self._resume_callback = None
            self.succeed(stop.value)
            return
        except Interrupt:
            raise SimulationError(
                "process let an Interrupt escape; catch it or terminate"
            )
        except Exception as exc:  # the process crashed
            self._resume_callback = None
            self.fail(exc)
            return
        self._expect(target)

    def _resume_with_exception(self, exc: BaseException) -> None:
        if self._triggered:
            return
        if self._waiting_on is not None:
            self._waiting_on._abandon()
        self._waiting_on = None
        try:
            target = self._generator.throw(exc)
        except StopIteration as stop:
            self._resume_callback = None
            self.succeed(stop.value)
            return
        except Exception as crashed:  # an escaped Interrupt included
            self._resume_callback = None
            self.fail(crashed)
            return
        self._expect(target)

    def _expect(self, target: Any) -> None:
        if not isinstance(target, Event):
            raise SimulationError(
                f"process yielded {target!r}; processes must yield events"
            )
        if target.sim is not self.sim:
            raise SimulationError("event belongs to a different simulator")
        self._waiting_on = target
        if target._processed:
            target.add_callback(self._resume_callback)  # the late path
        else:
            target.callbacks.append(self._resume_callback)


class Simulator:
    """The event queue and clock.

    Pending events sit in one binary heap of ``(time, seq, event)``
    triples; ``seq`` is a per-simulator counter, so the total order is
    ``(time, seq)`` and events scheduled for the same instant fire in
    the order they were scheduled.

    Example:
        >>> sim = Simulator()
        >>> def pinger(out):
        ...     for __ in range(3):
        ...         yield sim.timeout(1.0)
        ...         out.append(sim.now)
        >>> times = []
        >>> _ = sim.process(pinger(times))
        >>> sim.run()
        >>> times
        [1.0, 2.0, 3.0]
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = itertools.count()

    @property
    def now(self) -> float:
        """Current simulation time, in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event triggering ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a process; returns its completion event."""
        return Process(self, generator)

    def call_soon(self, callback: Callable[[Event], None]) -> None:
        """Run ``callback(event)`` at the current time, after every event
        already queued for it (one hop through a fresh kernel event)."""
        hop = Event(self)
        hop._triggered = True
        hop.callbacks.append(callback)
        _heappush(self._queue, (self._now + 0.0, next(self._seq), hop))

    def all_of(self, events: Iterable[Event]) -> Condition:
        """An event triggering once every given event has triggered."""
        return Condition(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """An event triggering when the first given event triggers."""
        return AnyOf(self, events)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Drain the event queue, optionally stopping at time ``until``.

        Events scheduled exactly at ``until`` still run; the clock never
        exceeds ``until`` when it is given.
        """
        # Hot loop, once per simulated event across every experiment, and
        # the only place an event is processed: the body is written out
        # (no call per event) and the processed-event counter is settled
        # once, on the way out.
        queue = self._queue
        pop = _heappop
        processed = 0
        try:
            while queue and (until is None or queue[0][0] <= until):
                self._now, __, event = pop(queue)
                processed += 1
                event._processed = True
                callbacks = event.callbacks
                event.callbacks = []
                if callbacks:
                    for callback in callbacks:
                        callback(event)
                elif event._exception is not None and not event.defused:
                    # Nobody is waiting on this failure: surface it
                    # instead of silently dropping a crashed process.
                    raise event._exception
        finally:
            if processed:
                PERF.bump("sim.events", processed)
        if until is not None:
            self._now = max(self._now, until)

    def peek(self) -> Optional[float]:
        """Time of the next scheduled event, or ``None`` when idle."""
        return self._queue[0][0] if self._queue else None

    # ------------------------------------------------------------------
    def _schedule(self, delay: float, event: Event) -> None:
        _heappush(self._queue, (self._now + delay, next(self._seq), event))
