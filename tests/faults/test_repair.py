"""Prioritized repair queue: ordering, outcomes, retries, relocation."""

import random

import pytest

from repro.cluster.topology import ClusterTopology
from repro.core.policy import PlacementError, ReplicationScheme
from repro.core.relocation import BlockMover, PlacementMonitor
from repro.erasure.codec import CodeParams
from repro.experiments.runner import build_cluster, populate_until_sealed
from repro.faults.repair import RepairQueue
from repro.faults.retry import RetryPolicy
from repro.sim.metrics import UNAVAILABLE
from repro.sim.trace import Tracer

CODE = CodeParams(6, 4)
SCHEME = ReplicationScheme(3, 2)
TOPO = ClusterTopology(
    nodes_per_rack=4, num_racks=8,
    intra_rack_bandwidth=1e6, cross_rack_bandwidth=1e6,
)
#: Six racks exactly fit a 6-block stripe at c=1: saturating them is easy.
TOPO_TIGHT = ClusterTopology(
    nodes_per_rack=4, num_racks=6,
    intra_rack_bandwidth=1e6, cross_rack_bandwidth=1e6,
)
#: 100 B/s makes a 1000-byte repair take 10 s: long enough to kill mid-way.
TOPO_SLOW = ClusterTopology(
    nodes_per_rack=4, num_racks=8,
    intra_rack_bandwidth=100.0, cross_rack_bandwidth=100.0,
)


def build(topology=TOPO, seed=1, stripes=2, encode=True, retry=None,
          mover=None):
    setup = build_cluster("ear", topology, CODE, SCHEME, seed,
                          block_size=1000)
    populate_until_sealed(setup, stripes)
    sealed = setup.namenode.sealed_stripes()[:stripes]
    if encode:
        def encode_all():
            for stripe in sealed:
                yield from setup.encoder.encode_stripe(stripe)

        setup.sim.process(encode_all())
        setup.sim.run()
    queue = RepairQueue(
        setup.sim, setup.network, setup.namenode, setup.raidnode,
        rng=random.Random(seed + 90), retry=retry, mover=mover,
    )
    return setup, sealed, queue


class TestPrioritization:
    def test_most_at_risk_block_repaired_first(self):
        setup, sealed, queue = build(topology=TOPO_SLOW, encode=False)
        store = setup.namenode.block_store
        # Block A keeps 2 of 3 replicas (margin 1); block B keeps only 1
        # (margin 0).  A is enqueued *first* but B must be repaired first.
        block_a, block_b = sealed[0].block_ids[0], sealed[0].block_ids[1]
        store.remove_replica(block_a, store.replica_nodes(block_a)[0])
        for node in store.replica_nodes(block_b)[:2]:
            store.remove_replica(block_b, node)
        finished = {}

        def watch(label, event):
            yield event
            finished[label] = setup.sim.now

        setup.sim.process(watch("a", queue.enqueue(block_a)))
        setup.sim.process(watch("b", queue.enqueue(block_b)))
        setup.sim.run()
        assert finished["b"] < finished["a"]
        assert queue.outcomes["rereplicated"] == 2
        assert queue.pending_count == 0

    def test_tie_break_is_independent_of_enqueue_order(self):
        """Equal-margin blocks drain in (stripe_id, block_id) order no
        matter how the damage reports arrived — the regression the
        deterministic ``_risk_key`` tie-break exists to prevent."""
        import itertools

        orders = []
        for permutation in itertools.permutations(range(3)):
            setup, sealed, queue = build(topology=TOPO_SLOW, encode=False)
            store = setup.namenode.block_store
            # Three blocks across two stripes, all at margin 1.
            victims = [
                sealed[0].block_ids[0],
                sealed[0].block_ids[1],
                sealed[1].block_ids[0],
            ]
            for block in victims:
                store.remove_replica(block, store.replica_nodes(block)[0])
            finished = []

            def watch(block, event):
                yield event
                finished.append(block)

            for index in permutation:
                setup.sim.process(
                    watch(victims[index], queue.enqueue(victims[index]))
                )
            setup.sim.run()
            orders.append(tuple(finished))
        assert len(set(orders)) == 1, orders

    def test_enqueue_dedupes_to_one_event(self):
        setup, sealed, queue = build(encode=False)
        store = setup.namenode.block_store
        block = sealed[0].block_ids[0]
        store.remove_replica(block, store.replica_nodes(block)[0])
        first = queue.enqueue(block)
        assert queue.enqueue(block) is first
        assert queue.pending_count == 1
        setup.sim.run()
        assert first.value == "rereplicated"


class TestConcurrency:
    def test_concurrency_must_be_positive(self):
        setup, __, __q = build(encode=False)
        with pytest.raises(ValueError):
            RepairQueue(
                setup.sim, setup.network, setup.namenode, setup.raidnode,
                concurrency=0,
            )

    def test_parallel_workers_overlap_repairs(self):
        """With concurrency=2 both damaged blocks start their repair
        transfer at t=0; the serial queue starts the second only after
        the first finishes.  (Wall-clock need not halve — the transfers
        may still contend on a shared rack uplink.)"""
        starts = {}
        for concurrency in (1, 2):
            setup = build_cluster("ear", TOPO_SLOW, CODE, SCHEME, 1,
                                  block_size=1000)
            populate_until_sealed(setup, 2)
            sealed = setup.namenode.sealed_stripes()[:2]
            queue = RepairQueue(
                setup.sim, setup.network, setup.namenode, setup.raidnode,
                rng=random.Random(91), concurrency=concurrency,
            )
            tracer = Tracer.attach(setup.network)
            store = setup.namenode.block_store
            for stripe in sealed:
                block = stripe.block_ids[0]
                store.remove_replica(block, store.replica_nodes(block)[0])
                queue.enqueue(block)
            setup.sim.run()
            assert queue.outcomes["rereplicated"] == 2
            starts[concurrency] = sorted(r.start for r in tracer.records)
        assert starts[2] == [0.0, 0.0]   # dispatched together
        assert starts[1][1] > 0.0        # serial: second waits its turn

    def test_parallel_queue_drains_same_outcomes_as_serial(self):
        outcomes = {}
        for concurrency in (1, 3):
            setup, sealed, __ = build(encode=False)
            queue = RepairQueue(
                setup.sim, setup.network, setup.namenode, setup.raidnode,
                rng=random.Random(91), concurrency=concurrency,
            )
            store = setup.namenode.block_store
            for stripe in sealed:
                for block in stripe.block_ids[:2]:
                    store.remove_replica(
                        block, store.replica_nodes(block)[0]
                    )
                    queue.enqueue(block)
            setup.sim.run()
            outcomes[concurrency] = dict(queue.outcomes)
            assert queue.pending_count == 0
        assert outcomes[1] == outcomes[3]


    def test_every_width_drains_the_same_damage_then_relocates(self):
        """One dispatcher at every width: a lost rack's worth of encoded
        blocks decodes to the same outcome counts at concurrency 1 and 4,
        and the forced-violation relocations wait for the damage queue."""
        drained = {}
        for concurrency in (1, 4):
            setup, sealed, __ = build(topology=TOPO_TIGHT, stripes=2)
            queue = RepairQueue(
                setup.sim, setup.network, setup.namenode, setup.raidnode,
                rng=random.Random(91), concurrency=concurrency,
                mover=BlockMover(TOPO_TIGHT, CODE, rng=random.Random(9)),
            )
            pending_at_relocation = []
            relocate = setup.raidnode.relocate_if_violating

            def watched(stripe, mover, relocate=relocate, queue=queue,
                        seen=pending_at_relocation):
                seen.append(queue.pending_count)
                return relocate(stripe, mover)

            setup.raidnode.relocate_if_violating = watched
            store = setup.namenode.block_store
            # Six racks, 6-block stripes, c=1: with this rack dark every
            # replacement breaks the cap and asks for a relocation.
            rack = TOPO_TIGHT.rack_of(
                store.replica_nodes(sealed[0].block_ids[0])[0]
            )
            events = []
            for node in TOPO_TIGHT.nodes_in_rack(rack):
                setup.network.fail_endpoint(node)
                for block in list(store.blocks_on_node(node)):
                    store.remove_replica(block, node)
                    events.append(queue.enqueue(block))
            setup.sim.run()
            assert queue.pending_count == 0
            assert queue.relocation_requests
            assert pending_at_relocation == [0] * len(
                queue.relocation_requests
            )
            drained[concurrency] = (
                sorted(e.value for e in events), dict(queue.outcomes)
            )
        assert drained[1] == drained[4]
        assert drained[1][1]["decoded"] >= 2


class TestOutcomes:
    def test_encoded_block_with_surviving_copy_is_noop(self):
        setup, sealed, queue = build()
        done = queue.enqueue(sealed[0].block_ids[0])
        setup.sim.run()
        assert done.value == "noop"
        assert queue.outcomes["noop"] == 1

    def test_lost_encoded_block_is_decoded(self):
        setup, sealed, queue = build()
        store = setup.namenode.block_store
        block = sealed[0].block_ids[0]
        store.remove_replica(block, store.replica_nodes(block)[0])
        done = queue.enqueue(block)
        setup.sim.run()
        assert done.value == "decoded"
        assert len(store.replica_nodes(block)) == 1

    def test_under_replicated_block_is_rereplicated(self):
        setup, sealed, queue = build(encode=False)
        store = setup.namenode.block_store
        block = sealed[0].block_ids[0]
        store.remove_replica(block, store.replica_nodes(block)[0])
        done = queue.enqueue(block)
        setup.sim.run()
        assert done.value == "rereplicated"
        assert len(store.replica_nodes(block)) == 3

    def test_block_with_no_copy_and_no_stripe_is_unrecoverable(self):
        setup, sealed, queue = build(encode=False)
        metrics = queue.metrics
        store = setup.namenode.block_store
        block = sealed[0].block_ids[0]
        for node in list(store.replica_nodes(block)):
            store.remove_replica(block, node)
        done = queue.enqueue(block)
        setup.sim.run()
        assert done.value == "unrecoverable"
        assert queue.unrecoverable == [block]
        assert [e.block_id for e in metrics.data_loss] == [block]

    def test_repairs_feed_resilience_metrics(self):
        setup, sealed, queue = build(encode=False)
        metrics = queue.metrics
        store = setup.namenode.block_store
        block = sealed[0].block_ids[0]
        store.remove_replica(block, store.replica_nodes(block)[0])
        queue.enqueue(block)
        setup.sim.run()
        assert metrics.counts["repairs"] == 1
        assert metrics.summary()["mttr"] > 0
        # The unavailability window opened at enqueue and closed at repair.
        assert len(metrics.windows[UNAVAILABLE]) == 1
        assert metrics.windows[UNAVAILABLE][0].end is not None


class TestEncodeRepairRace:
    def test_inflight_rereplication_dropped_when_stripe_encodes(self):
        """A copy still in flight when its stripe finishes encoding must be
        discarded: the encoder already trimmed the block to one replica."""
        from repro.core.stripe import StripeState

        setup, sealed, queue = build(topology=TOPO_SLOW, encode=False)
        store = setup.namenode.block_store
        stripe = sealed[0]
        block = stripe.block_ids[0]
        store.remove_replica(block, store.replica_nodes(block)[0])
        done = queue.enqueue(block)

        def encode_midflight():
            # The repair transfer takes 10 s; at +5 s the encode completes,
            # trimming every member to its single retained copy.
            yield setup.sim.timeout(5.0)
            for member in stripe.block_ids:
                for extra in list(store.replica_nodes(member))[1:]:
                    store.remove_replica(member, extra)
            stripe.state = StripeState.ENCODED

        setup.sim.process(encode_midflight())
        setup.sim.run()
        assert done.value == "rereplicated"
        # Not 2: the in-flight copy was dropped on arrival.
        assert len(store.replica_nodes(block)) == 1


class TestPlacementUnderPressure:
    def test_saturated_racks_commit_violation_and_request_relocation(self):
        setup, sealed, queue = build(topology=TOPO_TIGHT, stripes=1)
        store = setup.namenode.block_store
        stripe = sealed[0]
        block = stripe.block_ids[0]
        victim = store.replica_nodes(block)[0]
        home_rack = TOPO_TIGHT.rack_of(victim)
        # Six racks, six blocks, c=1: the only compliant rack is the one
        # that held the lost block.  Take it entirely down so every live
        # candidate sits in a saturated rack.
        for node in TOPO_TIGHT.nodes_in_rack(home_rack):
            setup.network.fail_endpoint(node)
        store.remove_replica(block, victim)
        done = queue.enqueue(block)
        setup.sim.run()
        assert done.value == "decoded"
        assert stripe in queue.relocation_requests
        # The committed placement really does violate the cap.
        new_node = store.replica_nodes(block)[0]
        assert TOPO_TIGHT.rack_of(new_node) != home_rack

    def test_relocation_served_once_damage_queue_drains(self):
        mover = BlockMover(TOPO, CODE, rng=random.Random(9))
        setup, sealed, queue = build(stripes=1, mover=mover)
        store = setup.namenode.block_store
        stripe = sealed[0]
        # Manufacture a c=1 violation: move one block's copy into a rack
        # that already holds another member of the stripe.
        b1, b2 = stripe.block_ids[0], stripe.block_ids[1]
        n1 = store.replica_nodes(b1)[0]
        n2 = store.replica_nodes(b2)[0]
        target = next(
            n for n in TOPO.nodes_in_rack(TOPO.rack_of(n1)) if n != n1
        )
        store.add_replica(b2, target)
        store.remove_replica(b2, n2)
        monitor = PlacementMonitor(TOPO, CODE)
        assert monitor.scan(store, [stripe]) == [stripe]
        queue.request_relocation(stripe)
        setup.sim.run()
        assert queue.relocations_done == 1
        assert monitor.scan(store, [stripe]) == []

    def test_transient_relocation_failure_is_recorded(self):
        mover = BlockMover(TOPO, CODE, rng=random.Random(9))
        setup, sealed, queue = build(stripes=1, mover=mover)
        error = PlacementError("stripe went back into repair")

        def failing_relocation(stripe, mover):
            raise error
            yield  # a generator, like the real relocation

        setup.raidnode.relocate_if_violating = failing_relocation
        queue.request_relocation(sealed[0])
        setup.sim.run()
        assert queue.relocations_done == 0
        assert queue.metrics.relocation_failures == [repr(error)]
        assert queue.metrics.counts == {"relocation_failures": 1}


class TestRelocationJournaling:
    """Placement-violation relocation requests are write-ahead logged and
    replayed: a crash between request and service must not lose the
    backlog (the ISSUE bugfix)."""

    def journaled_build(self, tmp_path, mover=None):
        from repro.journal import MetadataJournal

        journal = MetadataJournal(str(tmp_path), segment_records=64)
        setup = build_cluster("ear", TOPO_TIGHT, CODE, SCHEME, 1,
                              block_size=1000, journal=journal)
        populate_until_sealed(setup, 1)
        sealed = setup.namenode.sealed_stripes()[:1]

        def encode_all():
            for stripe in sealed:
                yield from setup.encoder.encode_stripe(stripe)

        setup.sim.process(encode_all())
        setup.sim.run()
        queue = RepairQueue(
            setup.sim, setup.network, setup.namenode, setup.raidnode,
            rng=random.Random(91), mover=mover,
        )
        return journal, setup, sealed, queue

    def force_violation(self, setup, sealed, queue):
        """Reproduce TestPlacementUnderPressure's saturated-rack repair."""
        store = setup.namenode.block_store
        stripe = sealed[0]
        block = stripe.block_ids[0]
        victim = store.replica_nodes(block)[0]
        for node in TOPO_TIGHT.nodes_in_rack(TOPO_TIGHT.rack_of(victim)):
            setup.network.fail_endpoint(node)
        store.remove_replica(block, victim)
        done = queue.enqueue(block)
        setup.sim.run()
        assert done.value == "decoded"
        return stripe

    def test_pending_request_survives_crash_and_replay(self, tmp_path):
        from repro.cluster.topology import ClusterTopology
        from repro.journal import recover

        journal, setup, sealed, queue = self.journaled_build(tmp_path)
        stripe = self.force_violation(setup, sealed, queue)
        assert journal.pending_relocations == [stripe.stripe_id]
        journal.flush()
        journal.close()

        recovered = recover(
            str(tmp_path),
            ClusterTopology(nodes_per_rack=4, num_racks=6,
                            intra_rack_bandwidth=1e6,
                            cross_rack_bandwidth=1e6),
        )
        assert recovered.pending_relocations == [stripe.stripe_id]

    def test_restore_reenters_backlog_without_rejournaling(self, tmp_path):
        journal, setup, sealed, queue = self.journaled_build(tmp_path)
        stripe = self.force_violation(setup, sealed, queue)

        fresh = RepairQueue(
            setup.sim, setup.network, setup.namenode, setup.raidnode,
            rng=random.Random(92),
        )
        before = journal.pending_relocations[:]
        fresh.restore_relocation_requests([stripe.stripe_id])
        assert [s.stripe_id for s in fresh.relocation_requests] == [
            stripe.stripe_id
        ]
        # Restoring replays durable state; it must not journal again.
        assert journal.pending_relocations == before

    def test_served_relocation_clears_the_journal_backlog(self, tmp_path):
        from repro.journal import MetadataJournal

        journal = MetadataJournal(str(tmp_path), segment_records=64)
        mover = BlockMover(TOPO, CODE, rng=random.Random(9))
        setup = build_cluster("ear", TOPO, CODE, SCHEME, 1,
                              block_size=1000, journal=journal)
        populate_until_sealed(setup, 1)
        sealed = setup.namenode.sealed_stripes()[:1]

        def encode_all():
            for stripe in sealed:
                yield from setup.encoder.encode_stripe(stripe)

        setup.sim.process(encode_all())
        setup.sim.run()
        queue = RepairQueue(
            setup.sim, setup.network, setup.namenode, setup.raidnode,
            rng=random.Random(91), mover=mover,
        )
        # Manufacture a c=1 violation on the healthy cluster, as in
        # test_relocation_served_once_damage_queue_drains.
        store = setup.namenode.block_store
        stripe = sealed[0]
        b1, b2 = stripe.block_ids[0], stripe.block_ids[1]
        n1 = store.replica_nodes(b1)[0]
        n2 = store.replica_nodes(b2)[0]
        target = next(
            n for n in TOPO.nodes_in_rack(TOPO.rack_of(n1)) if n != n1
        )
        store.add_replica(b2, target)
        store.remove_replica(b2, n2)
        queue.request_relocation(stripe)
        assert journal.pending_relocations == [stripe.stripe_id]
        setup.sim.run()
        assert queue.relocations_done == 1
        assert journal.pending_relocations == []
        journal.flush()
        journal.close()

        from repro.journal.wal import scan_journal

        types = [env["type"] for env in scan_journal(str(tmp_path)).envelopes]
        assert "relocation_requested" in types
        assert "relocation_served" in types
        assert types.index("relocation_requested") < types.index(
            "relocation_served"
        )


class TestRetryingRepair:
    """The ISSUE acceptance scenario: an in-flight repair transfer whose
    endpoint dies raises TransferAborted, and the retry re-plans with an
    alternate source/target instead of giving up."""

    POLICY = RetryPolicy(max_attempts=5, base_delay=1.0, multiplier=2.0,
                         jitter=0.0)

    def damaged_build(self):
        setup, sealed, queue = build(
            topology=TOPO_SLOW, encode=False, retry=self.POLICY,
        )
        store = setup.namenode.block_store
        block = sealed[0].block_ids[0]
        store.remove_replica(block, store.replica_nodes(block)[0])
        return setup, store, queue, queue.metrics, block

    def kill_inflight(self, setup, pick):
        """Kill one endpoint of the (single) in-flight repair transfer."""
        killed = []

        def killer():
            while not any(setup.network.inflight()):
                yield setup.sim.timeout(0.1)
            yield setup.sim.timeout(0.5)  # well into the 10 s transfer
            src, dst = next(setup.network.inflight())
            victim = src if pick == "src" else dst
            assert setup.network.fail_endpoint(victim) == 1
            killed.append(victim)

        setup.sim.process(killer())
        return killed

    def test_destination_death_midflight_retries_to_new_target(self):
        setup, store, queue, metrics, block = self.damaged_build()
        killed = self.kill_inflight(setup, pick="dst")
        done = queue.enqueue(block)
        setup.sim.run()
        assert done.value == "rereplicated"
        # The in-flight transfer was aborted (TransferAborted surfaced to
        # the retry loop), then a fresh attempt chose a live target.
        assert setup.network.stats.aborted == 1
        assert metrics.counts["aborts"] == 1
        assert metrics.counts["retries"] == 1
        assert killed[0] not in store.replica_nodes(block)
        assert len(store.replica_nodes(block)) == 3

    def test_source_death_midflight_retries_from_alternate_source(self):
        setup, store, queue, metrics, block = self.damaged_build()
        tracer = Tracer.attach(setup.network)
        killed = self.kill_inflight(setup, pick="src")
        done = queue.enqueue(block)
        setup.sim.run()
        assert done.value == "rereplicated"
        assert metrics.counts["aborts"] == 1
        assert metrics.counts["retries"] == 1
        # Only the successful attempt completes; it reads from a replica
        # other than the dead one.
        assert len(tracer.records) == 1
        assert tracer.records[0].src != killed[0]
        assert tracer.records[0].src in store.replica_nodes(block)
        assert len(store.replica_nodes(block)) == 3

    def test_retries_exhaust_to_unrecoverable_without_data_corruption(self):
        """When every source stays dead past the retry budget the block is
        reported unrecoverable — but nothing crashes and the queue drains."""
        policy = RetryPolicy(max_attempts=2, base_delay=1.0, jitter=0.0)
        setup, sealed, queue = build(
            topology=TOPO_SLOW, encode=False, retry=policy,
        )
        store = setup.namenode.block_store
        block = sealed[0].block_ids[0]
        for node in store.replica_nodes(block):
            setup.network.fail_endpoint(node)
        done = queue.enqueue(block)
        setup.sim.run()
        assert done.value == "unrecoverable"
        assert queue.pending_count == 0
        assert queue.metrics.counts["data_loss"] == 1
