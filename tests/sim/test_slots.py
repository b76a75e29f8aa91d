"""The kernel's event types are slotted: no per-instance dict.

Events are the simulator's dominant allocation; these tests lock in the
``__slots__`` layout so an innocent new attribute doesn't silently
reintroduce a dict on every event.
"""

import pytest

from repro.sim.engine import AnyOf, Condition, Event, Process, Simulator, Timeout


def make_process(sim):
    def proc():
        yield sim.timeout(1.0)

    return sim.process(proc())


class TestSlotsLayout:
    def test_kernel_types_have_no_instance_dict(self):
        sim = Simulator()
        instances = [
            Event(sim),
            Timeout(sim, 1.0),
            Condition(sim, []),
            AnyOf(sim, [Event(sim)]),
            make_process(sim),
        ]
        for instance in instances:
            assert not hasattr(instance, "__dict__"), type(instance).__name__

    def test_every_kernel_class_declares_slots(self):
        for cls in (Event, Timeout, Condition, AnyOf, Process):
            assert "__slots__" in vars(cls), cls.__name__

    def test_unknown_attribute_assignment_is_rejected(self):
        event = Event(Simulator())
        with pytest.raises(AttributeError):
            event.scratchpad = 1

    def test_subclasses_may_opt_back_into_a_dict(self):
        class DictEvent(Event):
            pass

        event = DictEvent(Simulator())
        event.scratchpad = 1  # fine: the subclass regained a dict
        assert event.scratchpad == 1


class TestProcessResumeCallback:
    def test_callback_is_cached_not_rebuilt_per_yield(self):
        sim = Simulator()

        def proc():
            for __ in range(3):
                yield sim.timeout(1.0)
                seen.append(process._resume_callback)

        seen = []
        process = sim.process(proc())
        first = process._resume_callback
        sim.run(until=2.5)
        assert seen == [first, first]  # one bound method while alive
        sim.run()
        # Dropped at exit: the finished process holds no cycle to itself.
        assert seen == [first] * 3 and process._resume_callback is None

    def test_slotted_kernel_still_runs_programs(self):
        sim = Simulator()
        log = []

        def worker(name, delay):
            yield sim.timeout(delay)
            log.append((name, sim.now))
            value = yield sim.timeout(delay, value=name)
            log.append((value, sim.now))

        sim.process(worker("a", 1.0))
        sim.process(worker("b", 1.5))
        sim.run()
        assert log == [
            ("a", 1.0),
            ("b", 1.5),
            ("a", 2.0),
            ("b", 3.0),
        ]
