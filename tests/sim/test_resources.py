"""MultiResource: atomic link sets, first-fit grants by callback, release
and cancel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator
from repro.sim.resources import MultiResource
from tests.sim.reference_resources import ListScanMultiResource


def claim(sim, links, keys):
    """Claim ``keys`` from a process: the claim, and an event that
    triggers when the grant callback runs."""
    granted = sim.event()
    return links.acquire(keys, lambda __: granted.succeed()), granted


class TestMultiResource:
    def test_atomic_grant(self):
        sim = Simulator()
        links = MultiResource()
        log = []

        def flow(name, keys, hold):
            grant, granted = claim(sim, links, keys)
            yield granted
            log.append((name, sim.now))
            yield sim.timeout(hold)
            links.release(grant)

        sim.process(flow("ab", {"a", "b"}, 2.0))
        sim.process(flow("bc", {"b", "c"}, 1.0))  # blocked on b
        sim.process(flow("de", {"d", "e"}, 1.0))  # disjoint: proceeds
        sim.run()
        assert log == [("ab", 0.0), ("de", 0.0), ("bc", 2.0)]

    def test_first_fit_skips_blocked_head(self):
        sim = Simulator()
        links = MultiResource()
        log = []

        def flow(name, keys, hold):
            grant, granted = claim(sim, links, keys)
            yield granted
            log.append((name, sim.now))
            yield sim.timeout(hold)
            links.release(grant)

        sim.process(flow("wide", {"a", "b"}, 3.0))
        sim.process(flow("blocked", {"a", "c"}, 1.0))
        sim.process(flow("narrow", {"d"}, 1.0))  # jumps the blocked head
        sim.run()
        assert ("narrow", 0.0) in log
        assert ("blocked", 3.0) in log

    def test_release_then_regrant(self):
        sim = Simulator()
        links = MultiResource()
        done = []

        def flow(name, keys, hold):
            grant, granted = claim(sim, links, keys)
            yield granted
            yield sim.timeout(hold)
            links.release(grant)
            done.append((name, sim.now))

        for i in range(4):
            sim.process(flow(f"f{i}", {"x"}, 1.0))
        sim.run()
        assert done == [("f0", 1.0), ("f1", 2.0), ("f2", 3.0), ("f3", 4.0)]

    def test_empty_keys_rejected(self):
        with pytest.raises(ValueError):
            MultiResource().acquire([], [].append)

    def test_release_ungranted_raises(self):
        links = MultiResource()
        granted = []
        links.acquire({"k"}, granted.append)
        b = links.acquire({"k"}, granted.append)
        with pytest.raises(SimulationError, match="never granted"):
            links.release(b)

    def test_double_release_raises(self):
        links = MultiResource()
        grant = links.acquire({"k"}, [].append)
        links.release(grant)
        with pytest.raises(SimulationError):
            links.release(grant)

    def test_grant_runs_the_callback_in_place_and_drops_it(self):
        links = MultiResource()
        granted = []
        first = links.acquire({"k"}, granted.append)
        assert granted == [first]  # free: granted before acquire returned
        second = links.acquire({"k"}, granted.append)
        assert granted == [first] and second._on_grant is not None
        links.release(first)
        assert granted == [first, second]  # inside the freeing release
        # A granted claim keeps no reference to its owner's callback.
        assert first._on_grant is None and second._on_grant is None

    def test_double_release_raises_even_when_another_claim_holds_the_keys(
        self,
    ):
        # "Its keys are held" used to stand in for "not yet released": with
        # a second holder of the same key the stale release went through,
        # freed the key under the live holder and let a third claim in.
        links = MultiResource()
        granted = []
        stale = links.acquire({"x"}, granted.append)
        links.release(stale)
        live = links.acquire({"x"}, granted.append)
        with pytest.raises(SimulationError, match="already released"):
            links.release(stale)
        assert links.held_keys == frozenset({"x"})
        links.acquire({"x"}, granted.append)
        assert granted == [stale, live]
        assert links.queue_length == 1

    def test_cancel_after_release_leaves_the_next_holder_alone(self):
        links = MultiResource()
        granted = []
        stale = links.acquire({"x", "y"}, granted.append)
        links.release(stale)
        live = links.acquire({"y", "x"}, granted.append)
        links.cancel(stale)  # granted-and-released: nothing left to undo
        assert links.held_keys == frozenset({"x", "y"})
        waiter = links.acquire({"x"}, granted.append)
        assert granted == [stale, live]
        links.release(live)
        assert granted == [stale, live, waiter]

    def test_cancel_of_a_queued_claim_is_idempotent(self):
        links = MultiResource()
        granted = []
        holder = links.acquire({"x"}, granted.append)
        first = links.acquire({"x"}, granted.append)
        second = links.acquire({"x"}, granted.append)
        links.cancel(first)
        links.cancel(first)
        assert links.queue_length == 1 and first._on_grant is None
        links.release(holder)
        assert granted == [holder, second]
        assert links.held_keys == frozenset({"x"})

    def test_waiter_blocked_on_two_keys_survives_either_release(self):
        # Parked under one held key, re-parked under the other when the
        # first frees: granted only when both are free.
        links = MultiResource()
        granted = []
        a = links.acquire(("a",), granted.append)
        b = links.acquire(("b",), granted.append)
        wide = links.acquire(("a", "b"), granted.append)
        links.release(a)
        assert granted == [a, b] and links.queue_length == 1
        links.release(b)
        assert granted == [a, b, wide] and links.queue_length == 0
        assert links.held_keys == frozenset({"a", "b"})

    def test_held_keys_and_queue_length(self):
        links = MultiResource()
        links.acquire({"a", "b"}, [].append)
        links.acquire({"a"}, [].append)
        assert links.held_keys == frozenset({"a", "b"})
        assert links.queue_length == 1

    def test_no_starvation_after_release(self):
        """A wide claim eventually runs once its keys free up."""
        sim = Simulator()
        links = MultiResource()
        log = []

        def narrow(name, key, start, hold):
            yield sim.timeout(start)
            grant, granted = claim(sim, links, {key})
            yield granted
            yield sim.timeout(hold)
            links.release(grant)
            log.append((name, sim.now))

        def wide():
            yield sim.timeout(0.5)  # arrive after the narrow flows hold keys
            grant, granted = claim(sim, links, {"a", "b"})
            yield granted
            log.append(("wide", sim.now))
            links.release(grant)

        sim.process(narrow("na", "a", 0.0, 2.0))
        sim.process(narrow("nb", "b", 0.0, 3.0))
        sim.process(wide())
        sim.run()
        assert ("wide", 3.0) in log


# ----------------------------------------------------------------------
# The indexed arbiter against the list scan it replaced
# ----------------------------------------------------------------------
KEYS = "abcdef"

#: One step: ("acquire", keys) | ("release", pick) | ("cancel", pick);
#: ``pick`` selects among the claims the step applies to, modulo their
#: number, so every drawn sequence is a legal one.
steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("acquire"),
            st.lists(st.sampled_from(KEYS), min_size=1, max_size=4),
        ),
        st.tuples(st.just("release"), st.integers(0, 63)),
        st.tuples(st.just("cancel"), st.integers(0, 63)),
    ),
    max_size=60,
)


class _Pair:
    """The same claim made on both arbiters."""

    def __init__(self, name, indexed, reference):
        self.name = name
        self.indexed = indexed
        self.reference = reference
        self.closed = False  # released or cancelled: never touched again


@given(steps=steps)
@settings(max_examples=300, deadline=None)
def test_indexed_arbiter_grants_exactly_what_the_list_scan_grants(steps):
    indexed, reference = MultiResource(), ListScanMultiResource()
    # Grant order is the order the callbacks ran in, which fixes the order
    # the granted flows arm their timeouts in.
    granted_new, granted_old = [], []
    pairs = []
    for action, argument in steps:
        if action == "acquire":
            name = len(pairs)
            pairs.append(_Pair(
                name,
                indexed.acquire(
                    argument, lambda __, n=name: granted_new.append(n)
                ),
                reference.acquire(
                    argument, lambda __, n=name: granted_old.append(n)
                ),
            ))
        else:
            live = [p for p in pairs if not p.closed]
            if action == "release":
                live = [p for p in live if p.reference.granted]
            if not live:
                continue
            pair = live[argument % len(live)]
            getattr(indexed, action)(pair.indexed)
            getattr(reference, action)(pair.reference)
            pair.closed = True
        assert granted_new == granted_old
        assert indexed.held_keys == reference.held_keys
        assert indexed.queue_length == reference.queue_length
