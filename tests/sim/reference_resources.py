"""List-scan reference for ``MultiResource`` (test oracle only).

This is the link arbiter the network ran before its waiters were indexed
by key: one pending list, re-examined front to back on every acquire and
every release, first-fit.  The production arbiter must make the *same
grants in the same order* — the order of the grant callbacks fixes the
``(time, seq)`` of every later event in a run — so the reference keeps
the old scan exactly, including its hole: "already released" is inferred
from the key set, which a later holder of the same keys defeats.  The
differential in ``test_resources.py`` therefore never double-releases.
"""

from repro.sim.engine import SimulationError


class ListScanRequest:
    """A claim on a set of unit resources; ``on_grant(claim)`` runs once
    it is granted."""

    def __init__(self, keys, on_grant):
        self.keys = keys
        self.on_grant = on_grant
        self.granted = False


class ListScanMultiResource:
    """Atomic key-set grants by rescanning one FIFO list."""

    def __init__(self):
        self._held = set()
        self._queue = []
        #: ``isdisjoint`` tests made so far: the work the index removes.
        self.examined = 0

    @property
    def held_keys(self):
        return frozenset(self._held)

    @property
    def queue_length(self):
        return len(self._queue)

    def acquire(self, keys, on_grant):
        key_set = frozenset(keys)
        if not key_set:
            raise ValueError("acquire requires at least one key")
        req = ListScanRequest(key_set, on_grant)
        self._queue.append(req)
        self._grant()
        return req

    def release(self, request):
        if not request.granted:
            raise SimulationError("releasing a claim that was never granted")
        if not request.keys <= self._held:
            raise SimulationError("claim already released")
        self._held -= request.keys
        self._grant()

    def cancel(self, request):
        if request.granted:
            if request.keys <= self._held:
                self.release(request)
            return
        try:
            self._queue.remove(request)
        except ValueError:
            pass  # already granted-and-released or never enqueued

    def _grant(self):
        remaining = []
        for req in self._queue:
            self.examined += 1
            if req.keys.isdisjoint(self._held):
                self._held |= req.keys
                req.granted = True
                req.on_grant(req)
            else:
                remaining.append(req)
        self._queue = remaining
