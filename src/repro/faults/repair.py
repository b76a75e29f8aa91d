"""Prioritized, retrying repair pipeline — the one block-repair engine.

Every damage source (a permanent node or rack loss, a scrubber
detection, a degraded read that gave up waiting) *enqueues* the block
here, and a background dispatcher always starts the most-at-risk stripe
first — the one with the fewest surviving blocks above its decode
threshold (``k`` for encoded stripes, one replica for replicated blocks).
Under compound failures this ordering is what separates "a window of
reduced durability" from actual data loss, which is why production RAID
nodes run exactly such a queue.

Each repair re-reads cluster state at execution time and, with a retry
policy attached, survives transient endpoint deaths by backing off and
re-planning both its source set and its target node.
"""

from __future__ import annotations

import random
from typing import Dict, Generator, Iterable, List, Optional, Tuple

from repro.cluster.block import BlockId, BlockStore
from repro.cluster.topology import NodeId, RackId
from repro.core.policy import PlacementError
from repro.core.stripe import Stripe, StripeState
from repro.faults.retry import RetryExhausted, RetryPolicy, with_retries
from repro.sim.engine import Event, Simulator
from repro.sim.metrics import MARGIN_ZERO, UNAVAILABLE, FaultMetrics
from repro.sim.netsim import Network, SourceUnavailable, TransferAborted

#: Repair outcomes delivered through each enqueue's completion event.
DECODED = "decoded"
REREPLICATED = "rereplicated"
NOOP = "noop"
UNRECOVERABLE = "unrecoverable"


class RepairQueue:
    """Background repair worker draining damage most-at-risk first.

    Args:
        sim: Simulation kernel.
        network: Link model carrying the repair traffic.
        namenode: Metadata server (block store + stripe registry).
        raidnode: Erasure-coded reconstruction engine.
        rng: Random source for target-node choices (deterministic default).
        retry: When given, each repair survives transient faults: aborted
            transfers trigger a backoff and a fresh attempt with a newly
            chosen target against current liveness.
        metrics: Fault collector (a fresh one when omitted): each repair
            feeds the repair-time distribution and reconstruction
            traffic; a block's unavailability window opens at enqueue
            and closes at repair, as does its stripe's margin-0 window.
        mover: Optional :class:`~repro.core.relocation.BlockMover`; when
            present, relocation requests (recorded constraint violations)
            are served once the damage queue drains.
        concurrency: Simultaneous repairs the queue may run (default 1:
            strictly one at a time).  Higher values model a production
            repair fleet — and are where placement matters: concurrent
            reconstructions whose survivor fetches share a rack uplink
            serialize on it, so concentrated (EAR-style) layouts drain a
            storm slower than spread ones.  Dispatch order is
            most-at-risk-first at every width.

    The dispatcher process starts on construction and runs forever; it sleeps
    on an internal wakeup event while idle, so an empty queue costs
    nothing.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        namenode,
        raidnode,
        rng: Optional[random.Random] = None,
        retry: Optional[RetryPolicy] = None,
        metrics: Optional[FaultMetrics] = None,
        mover=None,
        concurrency: int = 1,
    ) -> None:
        if concurrency < 1:
            raise ValueError("concurrency must be at least 1")
        self.sim = sim
        self.network = network
        self.namenode = namenode
        self.raidnode = raidnode
        self.rng = rng if rng is not None else random.Random(0)
        self.retry = retry
        self.metrics = metrics if metrics is not None else FaultMetrics()
        self.mover = mover
        self.concurrency = concurrency
        self._pending: Dict[BlockId, Event] = {}
        self._active: set = set()
        self._wakeup: Optional[Event] = None
        self.outcomes: Dict[str, int] = {
            DECODED: 0, REREPLICATED: 0, NOOP: 0, UNRECOVERABLE: 0,
        }
        self.unrecoverable: List[BlockId] = []
        self.relocation_requests: List[Stripe] = []
        self._reloc_pending: List[Stripe] = []
        self.relocations_done = 0
        self._worker = sim.process(self._run())

    # ------------------------------------------------------------------
    # Producer API
    # ------------------------------------------------------------------
    def enqueue(self, block_id: BlockId) -> Event:
        """Queue a damaged block; returns its repair completion event.

        The event succeeds with one of the outcome strings (``"decoded"``,
        ``"rereplicated"``, ``"noop"``, ``"unrecoverable"``) — it never
        fails, so callers can wait on many repairs with ``all_of``.
        Re-enqueueing a block already pending returns the existing event.
        """
        if block_id in self._pending:
            return self._pending[block_id]
        done = self.sim.event()
        self._pending[block_id] = done
        self.metrics.open_window(UNAVAILABLE, block_id, self.sim.now)
        if self._margin(block_id) <= 0:
            self.metrics.open_window(
                MARGIN_ZERO, self._vulnerability_key(block_id), self.sim.now
            )
        self._notify()
        return done

    def request_relocation(self, stripe: Stripe) -> None:
        """Ask for a stripe's placement to be repaired (after the damage).

        Called when a repair had to violate the blocks-per-rack cap; the
        request is always recorded, and served via the configured mover —
        once no block repairs are pending — when one is attached.  With a
        journal attached to the namenode the request is journaled
        *before* entering the in-memory backlog, so a crash mid-storm
        replays the same pending relocations.
        """
        journal = getattr(self.namenode, "journal", None)
        if journal is not None:
            journal.relocation_requested(stripe.stripe_id)
        self.relocation_requests.append(stripe)
        self._reloc_pending.append(stripe)
        self._notify()

    def restore_relocation_requests(
        self, stripe_ids: Iterable[int]
    ) -> None:
        """Rebuild the relocation backlog after a journal recovery.

        Takes the ``pending_relocations`` list of a
        :class:`~repro.journal.recovery.RecoveredState` and re-enters the
        corresponding stripes into the in-memory backlog *without*
        re-journaling them (they are already durable).
        """
        pre_store = self.namenode.pre_encoding_store
        if pre_store is None:
            return
        for stripe_id in stripe_ids:
            stripe = pre_store.stripe(stripe_id)
            self.relocation_requests.append(stripe)
            self._reloc_pending.append(stripe)
        if self._reloc_pending:
            self._notify()

    @property
    def pending_count(self) -> int:
        """Damaged blocks still waiting for (or under) repair."""
        return len(self._pending)

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------
    def _notify(self) -> None:
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def _run(self) -> Generator:
        """Dispatcher: up to ``concurrency`` repairs in flight at once.

        Repairs are *started* most-at-risk-first (see :meth:`_risk_key`);
        relocations are only served while the damage queue is completely
        drained.
        """
        while True:
            waiting = sorted(
                (b for b in self._pending if b not in self._active),
                key=self._risk_key,
            )
            while waiting and len(self._active) < self.concurrency:
                block_id = waiting.pop(0)
                self._active.add(block_id)
                self.sim.process(self._repair_and_finish(block_id))
            if (
                not self._pending
                and not self._active
                and self._reloc_pending
                and self.mover is not None
            ):
                stripe = self._reloc_pending.pop(0)
                yield from self._relocate(stripe)
                continue
            self._wakeup = self.sim.event()
            yield self._wakeup
            self._wakeup = None

    def _repair_and_finish(self, block_id: BlockId) -> Generator:
        start = self.sim.now
        outcome = yield from self._repair_one(block_id)
        self._active.discard(block_id)
        self._finish_repair(block_id, start, outcome)
        self._notify()

    def _finish_repair(
        self, block_id: BlockId, start: float, outcome: str
    ) -> None:
        self.outcomes[outcome] += 1
        metrics = self.metrics
        if outcome == UNRECOVERABLE:
            self.unrecoverable.append(block_id)
            metrics.record_data_loss(block_id, self.sim.now, "repair failed")
        metrics.record_repair(self.sim.now - start)
        metrics.close_window(UNAVAILABLE, block_id, self.sim.now)
        if outcome != UNRECOVERABLE and self._margin(block_id) > 0:
            metrics.close_window(
                MARGIN_ZERO, self._vulnerability_key(block_id), self.sim.now
            )
        done = self._pending.pop(block_id)
        done.succeed(outcome)

    def _risk_key(self, block_id: BlockId) -> Tuple[int, int, BlockId]:
        """Dispatch order: smallest failure margin first.

        Margin = surviving copies above the decode threshold (``k``
        members for an encoded stripe, one replica otherwise); ties break
        in deterministic ``(stripe_id, block_id)`` order — *not* arrival
        order, so the repair sequence is a pure function of cluster state
        regardless of how the damage was discovered.  Recomputed at each
        dispatch so repairs and further failures re-rank the queue
        continuously.
        """
        stripe = self.namenode.stripe_of(block_id)
        stripe_rank = -1 if stripe is None else stripe.stripe_id
        return (self._margin(block_id), stripe_rank, block_id)

    def _vulnerability_key(self, block_id: BlockId) -> str:
        stripe = self.namenode.stripe_of(block_id)
        if stripe is not None:
            return f"stripe:{stripe.stripe_id}"
        return f"block:{block_id}"

    def _margin(self, block_id: BlockId) -> int:
        store = self.namenode.block_store
        stripe = self.namenode.stripe_of(block_id)
        if stripe is not None and stripe.state == StripeState.ENCODED:
            survivors = sum(
                1 for member in stripe.all_block_ids()
                if store.replica_count(member)
            )
            return survivors - stripe.k
        return store.replica_count(block_id) - 1

    # ------------------------------------------------------------------
    # One repair
    # ------------------------------------------------------------------
    def _repair_one(self, block_id: BlockId) -> Generator:
        store = self.namenode.block_store
        survivors = store.replica_nodes(block_id)
        stripe = self.namenode.stripe_of(block_id)
        if survivors:
            if stripe is not None and stripe.state == StripeState.ENCODED:
                # The retained single copy is the steady state: no repair.
                return NOOP
            try:
                yield from self._with_queue_retries(
                    lambda __: self._rereplicate_once(block_id)
                )
                return REREPLICATED
            except RuntimeError:
                return UNRECOVERABLE
        if stripe is None or stripe.state != StripeState.ENCODED:
            return UNRECOVERABLE
        try:
            yield from self._with_queue_retries(
                lambda __: self._decode_once(stripe, block_id)
            )
            return DECODED
        except RuntimeError:
            return UNRECOVERABLE

    def _with_queue_retries(self, attempt_factory) -> Generator:
        """Run one repair attempt factory under the queue's retry policy.

        Retries also cover :class:`RetryExhausted` raised by the
        RaidNode's *inner* download retries: when those die because the
        chosen target node failed mid-repair, a fresh outer attempt picks
        a new live target.
        """
        result = yield from with_retries(
            self.sim,
            attempt_factory,
            self.retry,
            self.rng,
            retry_on=(TransferAborted, RetryExhausted),
            metrics=self.metrics,
            label="repair",
        )
        return result

    def _rereplicate_once(self, block_id: BlockId) -> Generator:
        store = self.namenode.block_store
        sources = [
            n
            for n in store.healthy_replica_nodes(block_id)
            if self.network.is_up(n)
        ]
        if not sources:
            replicas = store.replica_nodes(block_id)
            if replicas:
                raise SourceUnavailable(replicas[0], replicas[0], replicas[0])
            raise RuntimeError(f"block {block_id} has no surviving replica")
        target = self._replacement_node(block_id)
        if target is None:
            raise RuntimeError(f"no replacement node for block {block_id}")
        size = store.block(block_id).size
        yield from self.network.transfer(sources[0], target, size)
        cross = self.network.is_cross_rack(sources[0], target)
        self.metrics.record_repair_traffic(
            self.namenode.topology.rack_of(target),
            size,
            size if cross else 0.0,
        )
        # A concurrent encode may have trimmed the block to its retained
        # copy while ours was in flight; committing a second replica would
        # over-replicate an encoded stripe.  Drop the copy instead.
        stripe = self.namenode.stripe_of(block_id)
        if (
            stripe is not None
            and stripe.state == StripeState.ENCODED
            and store.replica_nodes(block_id)
        ):
            return
        store.add_replica(block_id, target)

    def _decode_once(self, stripe: Stripe, block_id: BlockId) -> Generator:
        target = self._replacement_node(block_id)
        if target is None:
            raise RuntimeError(f"no replacement node for block {block_id}")
        record = yield from self.raidnode.recover_block(
            stripe, block_id, target
        )
        size = self.namenode.block_store.block(block_id).size
        self.metrics.record_repair_traffic(
            self.namenode.topology.rack_of(target),
            stripe.k * size,
            record.cross_rack_reads * size,
        )

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _rack_cap(self) -> int:
        return getattr(self.namenode.policy, "c", 1)

    def _replacement_node(self, block_id: BlockId) -> Optional[NodeId]:
        """A live node for the repaired copy, honouring the rack cap.

        Encoded stripes keep the hard ``<= c`` blocks-per-rack constraint
        when possible; when every live candidate sits in a saturated rack
        the violation is committed *and* recorded as a relocation request,
        so the placement monitor's invariant is eventually restored.
        Replicated blocks keep the softer rack-diversity preference.
        "Live" is the network's view: a failed node is down there by
        construction (:class:`~repro.hdfs.failures.FailureInjector`).
        """
        store = self.namenode.block_store
        topology = self.namenode.topology
        stripe = self.namenode.stripe_of(block_id)
        rack_usage: Dict[RackId, int] = {}
        if stripe is not None:
            for member in stripe.all_block_ids():
                for node in store.replica_nodes(member):
                    rack = topology.rack_of(node)
                    rack_usage[rack] = rack_usage.get(rack, 0) + 1
        candidates = [
            n
            for n in topology.node_ids()
            if self.network.is_up(n)
            and block_id not in store.blocks_on_node(n)
        ]
        if not candidates:
            return None
        if stripe is not None and stripe.state == StripeState.ENCODED:
            cap = self._rack_cap()
            compliant = [
                n for n in candidates
                if rack_usage.get(topology.rack_of(n), 0) < cap
            ]
            if compliant:
                return self.rng.choice(compliant)
            choice = self.rng.choice(candidates)
            self.request_relocation(stripe)
            return choice
        diverse = [
            n for n in candidates if topology.rack_of(n) not in rack_usage
        ]
        return self.rng.choice(diverse or candidates)

    # ------------------------------------------------------------------
    # Relocation service
    # ------------------------------------------------------------------
    def _relocate(self, stripe: Stripe) -> Generator:
        """Serve one relocation request.

        Transient failures — the stripe went back into repair since the
        request (``PlacementError``, ``KeyError``/``ValueError`` from a
        replica that moved mid-plan) or an endpoint died under the move
        (``TransferAborted``, ``RetryExhausted``) — are recorded in the
        fault metrics and deferred to the next violation scan.
        Anything else is a genuine bug and propagates: a relocation
        worker that swallows unknown exceptions is how placement
        invariants rot silently.
        """
        try:
            yield from self.raidnode.relocate_if_violating(stripe, self.mover)
            self.relocations_done += 1
        except (
            PlacementError,
            TransferAborted,
            RetryExhausted,
            KeyError,
            ValueError,
        ) as exc:
            self.metrics.record_relocation_failure(repr(exc))
        finally:
            # Served or deferred, the request left the in-memory backlog;
            # the journal's pending set must agree either way.
            journal = getattr(self.namenode, "journal", None)
            if journal is not None:
                journal.relocation_served(stripe.stripe_id)
