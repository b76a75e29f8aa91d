"""A multi-resource arbiter for link holding.

``MultiResource`` grants *sets* of unit-capacity resources atomically: a
request proceeds only when every key it names is free, and requests are
granted first-fit in arrival order.  The network model uses it to hold all
links along a transfer's path simultaneously — acquiring links one at a
time would either deadlock or block links while merely queueing.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Any, Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.sim.engine import Event, SimulationError, Simulator


class MultiRequest(Event):
    """A pending claim on a set of unit resources; triggers when granted."""

    __slots__ = ("keys", "_arrival", "_parked_on", "_holding")

    def __init__(self, sim: Simulator, keys: Tuple, arrival: int) -> None:
        super().__init__(sim)
        #: The claimed keys, in the order the caller named them.
        self.keys = keys
        self._arrival = arrival
        #: While queued: the held key whose bucket the claim waits in.
        self._parked_on: Any = None
        #: True from the grant until the release — the claim's own record,
        #: because "its keys are held" is also true of a later holder.
        self._holding = False


class MultiResource:
    """Atomic acquisition of sets of unit-capacity resources.

    Keys are arbitrary hashable labels (links, disks).  ``acquire`` enqueues
    a claim for a key set; a claim is granted once none of its keys is held.
    Granting is first-fit in arrival order, so a blocked wide claim does not
    idle links that later narrow claims can use.

    Waiters are indexed, not scanned.  Every queued claim is *parked* under
    exactly one of its own keys that is held right now, so it is blocked for
    as long as that key stays held and nothing but that key's release can
    unblock it.  ``acquire`` therefore tests the new claim alone, and
    ``release`` examines — in arrival order — only the claims parked under
    a key it frees, granting those that fit and re-parking the rest under
    another held key, and leaves a bucket as soon as its key is held again
    (every claim in it names the key).  That is the grant sequence a
    front-to-back rescan of one FIFO list produces
    (``tests/sim/reference_resources.py`` keeps that scan as the oracle),
    at a cost independent of how many claims wait on other keys.

    Example (inside a process):
        >>> # grant = links.acquire({"uplink:3", "nic:17"})
        >>> # yield grant
        >>> # yield sim.timeout(duration)
        >>> # links.release(grant)
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._held: Set = set()
        #: held key -> heap of (arrival number, claim parked under it); no
        #: empty bucket is kept, so memory is O(queued claims).
        self._parked: Dict[Any, List[Tuple[int, MultiRequest]]] = {}
        self._arrivals = itertools.count()

    @property
    def held_keys(self) -> FrozenSet:
        """Keys currently granted to some claim."""
        return frozenset(self._held)

    @property
    def queue_length(self) -> int:
        """Claims waiting for a grant."""
        return sum(map(len, self._parked.values()))

    def acquire(self, keys: Iterable) -> MultiRequest:
        """Claim every key in ``keys``; yield the returned event to wait."""
        keys = tuple(keys)
        if not keys:
            raise ValueError("acquire requires at least one key")
        req = MultiRequest(self.sim, keys, next(self._arrivals))
        if self._held.isdisjoint(keys):
            self._grant(req)
        else:
            self._park(req)
        return req

    def release(self, request: MultiRequest) -> None:
        """Return a granted claim's keys.

        Raises:
            SimulationError: If the claim was never granted or already
                released.
        """
        if not request._holding:
            raise SimulationError(
                "claim already released" if request.triggered
                else "releasing a claim that was never granted"
            )
        request._holding = False
        held = self._held
        held.difference_update(request.keys)
        parked = self._parked
        if not parked:
            return
        # Each freed bucket's oldest claim, merged by (unique) arrival.
        heads = [
            (parked[key][0][0], key) for key in request.keys if key in parked
        ]
        heapify(heads)
        while heads:
            arrival, key = heappop(heads)
            if key in held:
                continue  # re-granted: the rest of its bucket stays parked
            bucket = parked.get(key)
            if bucket is None or bucket[0][0] != arrival:
                continue  # a stale head: ``request`` named ``key`` twice
            claim = heappop(bucket)[1]
            if held.isdisjoint(claim.keys):
                self._grant(claim)  # holds ``key`` again
            else:
                self._park(claim)
                if bucket:
                    heappush(heads, (bucket[0][0], key))
            if not bucket:
                del parked[key]

    def cancel(self, request: MultiRequest) -> None:
        """Withdraw a claim whether or not it was granted yet.

        An aborted transfer may still be queued for its links (never
        granted) or may have been granted between the abort and the
        cleanup; both must end with the keys free for other claims.  A
        claim already released or withdrawn is left alone.
        """
        if request._holding:
            self.release(request)
        elif not request.triggered:
            bucket = self._parked.get(request._parked_on, ())
            entry = (request._arrival, request)
            if entry in bucket:
                bucket.remove(entry)
                heapify(bucket)
                if not bucket:
                    del self._parked[request._parked_on]

    def _grant(self, claim: MultiRequest) -> None:
        self._held.update(claim.keys)
        claim._holding = True
        claim.succeed()

    def _park(self, claim: MultiRequest) -> None:
        """File a blocked claim under the first of its keys that is held."""
        held = self._held
        for key in claim.keys:
            if key in held:
                claim._parked_on = key
                bucket = self._parked.get(key)
                if bucket is None:
                    self._parked[key] = [(claim._arrival, claim)]
                else:
                    heappush(bucket, (claim._arrival, claim))
                return
