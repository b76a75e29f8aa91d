"""Chaos schedule validation and injector behaviour."""

import math
import random

import pytest

from repro.cluster.topology import ClusterTopology
from repro.core.policy import ReplicationScheme
from repro.erasure.codec import CodeParams
from repro.experiments.runner import build_cluster, populate_until_sealed
from repro.faults.chaos import (
    CORRUPT_BLOCK,
    DEGRADE_NODE,
    NODE_FLAP,
    NODE_LOSS,
    RACK_LOSS,
    RACK_OUTAGE,
    ChaosEvent,
    ChaosInjector,
    ChaosSchedule,
)
from repro.faults.repair import RepairQueue
from repro.sim.engine import Simulator
from repro.sim.metrics import OUTAGE, UNAVAILABLE
from repro.sim.netsim import Network, TransferAborted

TOPO = ClusterTopology(
    nodes_per_rack=4, num_racks=4,
    intra_rack_bandwidth=100.0, cross_rack_bandwidth=100.0,
)


class TestChaosEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ChaosEvent(time=0.0, kind="meteor_strike", target=1, duration=1.0)

    def test_transient_kinds_need_duration(self):
        for kind in (NODE_FLAP, RACK_OUTAGE, DEGRADE_NODE):
            with pytest.raises(ValueError):
                ChaosEvent(time=0.0, kind=kind, target=1)

    def test_degrade_factor_bounds(self):
        with pytest.raises(ValueError):
            ChaosEvent(time=0.0, kind=DEGRADE_NODE, target=1,
                       duration=1.0, factor=0.0)
        with pytest.raises(ValueError):
            ChaosEvent(time=0.0, kind=DEGRADE_NODE, target=1,
                       duration=1.0, factor=1.5)

    @pytest.mark.parametrize("make", [
        lambda: ChaosEvent(time=math.nan, kind=CORRUPT_BLOCK, target=1),
        lambda: ChaosEvent(time=-1.0, kind=CORRUPT_BLOCK, target=1),
        lambda: ChaosEvent(time=0.0, kind=NODE_FLAP, target=1,
                           duration=math.nan),
        lambda: ChaosSchedule.random_schedule(TOPO, random.Random(0), math.nan),
        lambda: ChaosSchedule.random_schedule(TOPO, random.Random(0), math.inf),
        lambda: ChaosSchedule.random_schedule(TOPO, random.Random(0), 0.0),
    ], ids=["nan-time", "negative-time", "nan-duration", "nan-horizon",
            "inf-horizon", "zero-horizon"])
    def test_nan_and_unbounded_times_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("kind", [NODE_LOSS, RACK_LOSS])
    @pytest.mark.parametrize("time", [math.nan, -1.0],
                             ids=["nan-time", "negative-time"])
    def test_loss_time_must_be_non_negative(self, kind, time):
        with pytest.raises(ValueError):
            ChaosEvent(time=time, kind=kind, target=1)

    @pytest.mark.parametrize("kind", [NODE_LOSS, RACK_LOSS])
    def test_loss_without_repair_queue_rejected(self, kind):
        sim = Simulator()
        network = Network(sim, TOPO)
        ChaosInjector(sim, network, ChaosSchedule(events=[
            ChaosEvent(time=1.0, kind=kind, target=1),
        ])).start()
        with pytest.raises(ValueError, match="repair queue"):
            sim.run()

    def test_corruption_needs_no_duration(self):
        event = ChaosEvent(time=1.0, kind=CORRUPT_BLOCK, target=9)
        assert event.duration == 0.0


class TestChaosSchedule:
    def test_events_sorted_by_time(self):
        schedule = ChaosSchedule(events=[
            ChaosEvent(time=5.0, kind=NODE_FLAP, target=1, duration=1.0),
            ChaosEvent(time=1.0, kind=NODE_FLAP, target=2, duration=1.0),
        ])
        assert [e.time for e in schedule] == [1.0, 5.0]
        schedule.add(ChaosEvent(time=3.0, kind=NODE_FLAP, target=3,
                                duration=1.0))
        assert [e.time for e in schedule] == [1.0, 3.0, 5.0]

    def test_random_schedule_is_deterministic(self):
        a = ChaosSchedule.random_schedule(TOPO, random.Random(3), 100.0,
                                          corrupt_blocks=[1, 2])
        b = ChaosSchedule.random_schedule(TOPO, random.Random(3), 100.0,
                                          corrupt_blocks=[1, 2])
        assert a.events == b.events

    def test_random_schedule_counts(self):
        schedule = ChaosSchedule.random_schedule(
            TOPO, random.Random(0), 50.0,
            num_flaps=3, num_rack_outages=2, num_degradations=1,
            corrupt_blocks=[7],
        )
        kinds = [e.kind for e in schedule]
        assert kinds.count(NODE_FLAP) == 3
        assert kinds.count(RACK_OUTAGE) == 2
        assert kinds.count(DEGRADE_NODE) == 1
        assert kinds.count(CORRUPT_BLOCK) == 1
        assert all(0 <= e.time < 50.0 for e in schedule)


class TestChaosInjector:
    def test_node_flap_downs_then_restores(self):
        sim = Simulator()
        network = Network(sim, TOPO)
        schedule = ChaosSchedule(events=[
            ChaosEvent(time=2.0, kind=NODE_FLAP, target=5, duration=3.0),
        ])
        injector = ChaosInjector(sim, network, schedule)
        states = []

        def probe():
            yield sim.timeout(1.0)
            states.append(("before", network.is_up(5)))
            yield sim.timeout(2.0)   # t=3, mid-flap
            states.append(("during", network.is_up(5)))
            yield sim.timeout(3.0)   # t=6, after restore at t=5
            states.append(("after", network.is_up(5)))

        injector.start()
        sim.process(probe())
        sim.run()
        assert states == [("before", True), ("during", False), ("after", True)]
        outages = injector.metrics.windows[OUTAGE]
        assert len(outages) == 1
        assert outages[0].duration == pytest.approx(3.0)

    @staticmethod
    def outage_windows(flaps):
        """Run node-5 flaps given as (start, duration); return windows."""
        sim = Simulator()
        network = Network(sim, TOPO)
        schedule = ChaosSchedule(events=[
            ChaosEvent(time=start, kind=NODE_FLAP, target=5,
                       duration=duration)
            for start, duration in flaps
        ])
        injector = ChaosInjector(sim, network, schedule)
        injector.start()
        sim.run()
        assert network.is_up(5)
        return [(w.start, w.end) for w in injector.metrics.windows[OUTAGE]]

    def test_overlapping_outages_of_one_target_share_one_window(self):
        # The window lasts until the *last* overlapping flap lifts.
        assert self.outage_windows([(0.0, 10.0), (5.0, 15.0)]) == [
            (0.0, 20.0),
        ]

    def test_chained_outages_of_one_target_stay_one_window(self):
        # A third flap opening before the second lifts joins the window
        # rather than starting one the second flap's lift would close.
        assert self.outage_windows(
            [(0.0, 10.0), (5.0, 15.0), (15.0, 10.0)]
        ) == [(0.0, 25.0)]

    def test_disjoint_outages_of_one_target_get_a_window_each(self):
        assert self.outage_windows([(0.0, 2.0), (5.0, 2.0)]) == [
            (0.0, 2.0), (5.0, 7.0),
        ]

    def test_rack_outage_downs_every_node_in_rack(self):
        sim = Simulator()
        network = Network(sim, TOPO)
        schedule = ChaosSchedule(events=[
            ChaosEvent(time=1.0, kind=RACK_OUTAGE, target=2, duration=4.0),
        ])
        ChaosInjector(sim, network, schedule).start()
        rack_nodes = set(TOPO.nodes_in_rack(2))
        snapshots = []

        def probe():
            yield sim.timeout(2.0)
            snapshots.append(set(network.down_nodes))
            yield sim.timeout(4.0)
            snapshots.append(set(network.down_nodes))

        sim.process(probe())
        sim.run()
        assert snapshots[0] == rack_nodes
        assert snapshots[1] == set()

    def test_overlapping_faults_restore_by_refcount(self):
        """A node downed by a flap AND its rack's outage only returns once
        both lift."""
        sim = Simulator()
        network = Network(sim, TOPO)
        node = TOPO.nodes_in_rack(1)[0]
        schedule = ChaosSchedule(events=[
            ChaosEvent(time=1.0, kind=NODE_FLAP, target=node, duration=10.0),
            ChaosEvent(time=2.0, kind=RACK_OUTAGE, target=1, duration=3.0),
        ])
        ChaosInjector(sim, network, schedule).start()
        states = []

        def probe():
            yield sim.timeout(6.0)   # outage lifted at 5, flap still on
            states.append(network.is_up(node))
            yield sim.timeout(6.0)   # flap lifted at 11
            states.append(network.is_up(node))

        sim.process(probe())
        sim.run()
        assert states == [False, True]

    def test_flap_aborts_inflight_transfer(self):
        sim = Simulator()
        network = Network(sim, TOPO)
        schedule = ChaosSchedule(events=[
            ChaosEvent(time=1.0, kind=NODE_FLAP, target=1, duration=2.0),
        ])
        ChaosInjector(sim, network, schedule).start()
        errors = []

        def sender():
            try:
                yield from network.transfer(0, 1, 1000)  # 10 s
            except TransferAborted as exc:
                errors.append((exc.endpoint, sim.now))

        sim.process(sender())
        sim.run()
        assert errors == [(1, pytest.approx(1.0))]

    def test_degradation_slows_then_restores_bandwidth(self):
        sim = Simulator()
        network = Network(sim, TOPO)
        schedule = ChaosSchedule(events=[
            ChaosEvent(time=0.0, kind=DEGRADE_NODE, target=3,
                       duration=5.0, factor=0.5),
        ])
        ChaosInjector(sim, network, schedule).start()
        base = TOPO.intra_rack_bandwidth
        observed = []

        def probe():
            yield sim.timeout(1.0)
            observed.append(network.node_up_bandwidth(3))
            yield sim.timeout(5.0)
            observed.append(network.node_up_bandwidth(3))

        sim.process(probe())
        sim.run()
        assert observed == [base * 0.5, base]

    def test_overlapping_degradations_multiply_then_restore_nominal(self):
        sim = Simulator()
        network = Network(sim, TOPO)
        schedule = ChaosSchedule(events=[
            ChaosEvent(time=0.0, kind=DEGRADE_NODE, target=3,
                       duration=10.0, factor=0.5),
            ChaosEvent(time=5.0, kind=DEGRADE_NODE, target=3,
                       duration=10.0, factor=0.5),
        ])
        ChaosInjector(sim, network, schedule).start()
        base = TOPO.intra_rack_bandwidth
        observed = []

        def probe():
            for __ in range(4):  # t = 1, 6, 11, 16
                yield sim.timeout(1.0 if not observed else 5.0)
                observed.append(
                    (network.node_up_bandwidth(3),
                     network.node_down_bandwidth(3))
                )

        sim.process(probe())
        sim.run()
        assert observed == [
            (base * 0.5,) * 2, (base * 0.25,) * 2, (base * 0.5,) * 2,
            (base,) * 2,
        ]

    def test_corruption_marks_a_live_replica(self):
        code = CodeParams(6, 4)
        setup = build_cluster(
            "ear",
            ClusterTopology(nodes_per_rack=4, num_racks=8,
                            intra_rack_bandwidth=1e6,
                            cross_rack_bandwidth=1e6),
            code, ReplicationScheme(3, 2), seed=1, block_size=1000,
        )
        populate_until_sealed(setup, 1)
        store = setup.namenode.block_store
        block_id = setup.namenode.sealed_stripes()[0].block_ids[0]
        schedule = ChaosSchedule(events=[
            ChaosEvent(time=1.0, kind=CORRUPT_BLOCK, target=block_id),
        ])
        injector = ChaosInjector(
            setup.sim, setup.network, schedule,
            namenode=setup.namenode, rng=random.Random(0),
        )
        injector.start()
        setup.sim.run()
        corrupted = store.corrupted_replicas()
        assert len(corrupted) == 1
        assert corrupted[0][0] == block_id
        assert injector.metrics.counts["corruption_injected"] == 1
        healthy = store.healthy_replica_nodes(block_id)
        assert corrupted[0][1] not in healthy
        assert len(healthy) == len(store.replica_nodes(block_id)) - 1

    def test_corruption_of_vanished_block_is_skipped(self):
        sim = Simulator()
        network = Network(sim, TOPO)

        class FakeNameNode:
            class block_store:  # noqa: N801 - minimal stub
                @staticmethod
                def healthy_replica_nodes(block_id):
                    raise KeyError(block_id)

        schedule = ChaosSchedule(events=[
            ChaosEvent(time=0.5, kind=CORRUPT_BLOCK, target=12345),
        ])
        injector = ChaosInjector(sim, network, schedule,
                                 namenode=FakeNameNode())
        injector.start()
        sim.run()
        assert injector.skipped == list(schedule)
        assert injector.applied == []


def small_cluster(seed=1):
    """A populated 8x4 cluster and a repair queue for its losses."""
    setup = build_cluster(
        "ear",
        ClusterTopology(nodes_per_rack=4, num_racks=8,
                        intra_rack_bandwidth=1e6, cross_rack_bandwidth=1e6),
        CodeParams(6, 4), ReplicationScheme(3, 2), seed=seed,
        block_size=1000,
    )
    populate_until_sealed(setup, 2)
    queue = RepairQueue(
        setup.sim, setup.network, setup.namenode, setup.raidnode,
        rng=random.Random(seed),
    )
    return setup, queue


class TestLossEvents:
    def test_lost_node_stays_down_after_its_flap_lifts(self):
        setup, queue = small_cluster()
        node = 5
        injector = ChaosInjector(
            setup.sim, setup.network, ChaosSchedule(events=[
                ChaosEvent(time=1.0, kind=NODE_FLAP, target=node,
                           duration=10.0),
                ChaosEvent(time=2.0, kind=NODE_LOSS, target=node),
            ]),
            repair_queue=queue,
        )
        injector.start()
        setup.sim.run(until=50.0)
        assert not setup.network.is_up(node)
        assert not setup.namenode.block_store.blocks_on_node(node)
        # The flap's outage window still closes when the flap lifts.
        (window,) = injector.metrics.windows[OUTAGE]
        assert (window.start, window.end) == (1.0, 11.0)

    def test_lost_node_stays_down_after_its_rack_outage_lifts(self):
        setup, queue = small_cluster()
        rack_nodes = sorted(setup.topology.nodes_in_rack(2))
        node = rack_nodes[0]
        injector = ChaosInjector(
            setup.sim, setup.network, ChaosSchedule(events=[
                ChaosEvent(time=1.0, kind=RACK_OUTAGE, target=2,
                           duration=10.0),
                ChaosEvent(time=2.0, kind=NODE_LOSS, target=node),
            ]),
            repair_queue=queue,
        )
        injector.start()
        setup.sim.run(until=50.0)
        assert setup.network.down_nodes == {node}
        (window,) = injector.metrics.windows[OUTAGE]
        assert (window.start, window.end) == (1.0, 11.0)

    def test_rack_loss_enqueues_each_block_once_without_a_storm_tally(self):
        setup, queue = small_cluster()
        store = setup.namenode.block_store
        held = [
            block_id
            for node in setup.topology.nodes_in_rack(3)
            for block_id in store.blocks_on_node(node)
        ]
        assert len(held) > len(set(held)), "no block with two copies here"
        injector = ChaosInjector(
            setup.sim, setup.network, ChaosSchedule(events=[
                ChaosEvent(time=1.0, kind=RACK_LOSS, target=3),
            ]),
            metrics=queue.metrics, repair_queue=queue,
        )
        injector.start()
        setup.sim.run()
        assert len(queue.metrics.windows[UNAVAILABLE]) == len(set(held))
        assert injector.applied == list(injector.schedule)
        # Each scenario tallies its own label for a loss.
        assert not any(
            name.startswith("storm_") for name in queue.metrics.counts
        )
