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
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.sim.engine import SimulationError


class MultiRequest:
    """A claim on a set of unit resources, granted by calling back its
    owner (not an event: no claim ever enters the kernel's queue)."""

    __slots__ = ("keys", "_arrival", "_on_grant", "_parked_on", "_holding")

    def __init__(self, keys: Tuple, arrival: int, on_grant: Callable) -> None:
        #: The claimed keys, in the order the caller named them.
        self.keys = keys
        self._arrival = arrival
        #: Set while the claim waits; ``None`` once called or withdrawn, so
        #: a granted claim keeps no reference to its owner.
        self._on_grant = on_grant
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

    Example:
        >>> links, granted = MultiResource(), []
        >>> first = links.acquire(("nic:17", "uplink:3"), granted.append)
        >>> second = links.acquire(("uplink:3",), granted.append)
        >>> links.release(first)  # grants ``second`` inside the call
        >>> granted == [first, second]
        True
    """

    def __init__(self) -> None:
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

    def acquire(
        self, keys: Iterable, on_grant: Callable[[MultiRequest], None]
    ) -> MultiRequest:
        """Claim every key in ``keys``; ``on_grant(claim)`` is called the
        moment they are all free — before this returns if they are now,
        else inside the ``release`` that frees the last of them.  It runs
        inside the arbiter, so it must not acquire or release."""
        keys = tuple(keys)
        if not keys:
            raise ValueError("acquire requires at least one key")
        claim = MultiRequest(keys, next(self._arrivals), on_grant)
        if self._held.isdisjoint(keys):
            self._grant(claim)
        else:
            self._park(claim)
        return claim

    def release(self, claim: MultiRequest) -> None:
        """Return a granted claim's keys, granting what they unblock.

        Raises:
            SimulationError: If the claim was never granted or already
                released.
        """
        if not claim._holding:
            raise SimulationError(
                "releasing a claim that was never granted"
                if claim._on_grant is not None
                else "claim already released or withdrawn"
            )
        claim._holding = False
        held = self._held
        held.difference_update(claim.keys)
        parked = self._parked
        if not parked:
            return
        # Each freed bucket's oldest claim, merged by (unique) arrival.
        heads = [
            (parked[key][0][0], key) for key in claim.keys if key in parked
        ]
        heapify(heads)
        while heads:
            arrival, key = heappop(heads)
            if key in held:
                continue  # re-granted: the rest of its bucket stays parked
            bucket = parked.get(key)
            if bucket is None or bucket[0][0] != arrival:
                continue  # a stale head: ``claim`` named ``key`` twice
            waiter = heappop(bucket)[1]
            if not bucket:
                del parked[key]
            if held.isdisjoint(waiter.keys):
                self._grant(waiter)  # holds ``key`` again
            else:
                self._park(waiter)
                if bucket:
                    heappush(heads, (bucket[0][0], key))

    def cancel(self, claim: MultiRequest) -> None:
        """Withdraw a claim whether or not it was granted yet.

        An aborted transfer may still be queued for its links (never
        granted) or may hold them; both must end with the keys free for
        other claims.  A claim already released or withdrawn is left alone.
        """
        if claim._holding:
            self.release(claim)
        elif claim._on_grant is not None:
            claim._on_grant = None
            bucket = self._parked[claim._parked_on]
            bucket.remove((claim._arrival, claim))
            if bucket:
                heapify(bucket)
            else:
                del self._parked[claim._parked_on]

    def _grant(self, claim: MultiRequest) -> None:
        self._held.update(claim.keys)
        claim._holding = True
        on_grant, claim._on_grant = claim._on_grant, None
        on_grant(claim)

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
