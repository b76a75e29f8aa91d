"""Permanent node/rack loss repaired inside the simulation.

A ``NODE_LOSS`` or ``RACK_LOSS`` chaos event only causes the damage;
every lost block is rebuilt by the ``RepairQueue`` the injector is
handed, and the loss's cost is read back from that queue.
"""

import random

import pytest

from repro.cluster.topology import ClusterTopology
from repro.core.policy import ReplicationScheme
from repro.erasure.codec import CodeParams
from repro.experiments.runner import build_cluster, populate_until_sealed
from repro.faults.chaos import NODE_LOSS, RACK_LOSS
from repro.faults.repair import RepairQueue
from repro.sim.metrics import UNAVAILABLE
from tests.faults.losses import lose, loss_report

CODE = CodeParams(6, 4)
SCHEME = ReplicationScheme(3, 2)
TOPO = ClusterTopology(
    nodes_per_rack=4, num_racks=8,
    intra_rack_bandwidth=1e6, cross_rack_bandwidth=1e6,
)


def build(policy="ear", seed=1, stripes=4, encode=True):
    setup = build_cluster(policy, TOPO, CODE, SCHEME, seed, block_size=1000)
    populate_until_sealed(setup, stripes)
    sealed = setup.namenode.sealed_stripes()[:stripes]
    if encode:
        def encode_all():
            for stripe in sealed:
                yield from setup.encoder.encode_stripe(stripe)

        setup.sim.process(encode_all())
        setup.sim.run()
    return setup, sealed, make_queue(setup, seed + 50)


def make_queue(setup, rng_seed):
    return RepairQueue(
        setup.sim, setup.network, setup.namenode, setup.raidnode,
        rng=random.Random(rng_seed),
    )


class TestNodeFailure:
    def test_encoded_blocks_recovered(self):
        setup, stripes, queue = build()
        store = setup.namenode.block_store
        # Fail a node that holds the single copy of an encoded block (it
        # may also hold replicas of still-open stripes).
        victim = store.replica_nodes(stripes[0].block_ids[0])[0]
        lost_count = len(store.blocks_on_node(victim))
        lose(setup, queue, 10.0, NODE_LOSS, victim)
        setup.sim.run()
        report = loss_report(queue)
        assert report.blocks_lost == lost_count
        assert report.decoded >= 1  # the encoded block
        assert report.decoded + report.rereplicated == lost_count
        assert report.unrecoverable == ()
        assert report.repair_time > 0
        # Every stripe is whole again.
        for stripe in stripes:
            for block_id in stripe.all_block_ids():
                assert len(store.replica_nodes(block_id)) == 1

    def test_replicated_blocks_rereplicated(self):
        setup, stripes, queue = build(encode=False)
        store = setup.namenode.block_store
        victim = next(n for n in TOPO.node_ids() if store.blocks_on_node(n))
        before = {
            b: len(store.replica_nodes(b))
            for b in store.blocks_on_node(victim)
        }
        lose(setup, queue, 5.0, NODE_LOSS, victim)
        setup.sim.run()
        report = loss_report(queue)
        assert report.rereplicated == len(before)
        for block_id, count in before.items():
            assert len(store.replica_nodes(block_id)) == count

    def test_failure_waits_for_scheduled_time(self):
        setup, stripes, queue = build()
        store = setup.namenode.block_store
        victim = next(n for n in TOPO.node_ids() if store.blocks_on_node(n))
        start = setup.sim.now
        lose(setup, queue, start + 42.0, NODE_LOSS, victim)
        setup.sim.run()
        assert loss_report(queue).repair_time >= 0
        assert setup.sim.now >= start + 42.0
        # Every lost block became unavailable at the loss, not before.
        windows = queue.metrics.windows[UNAVAILABLE]
        assert windows
        assert {w.start for w in windows} == {start + 42.0}


class TestRackFailure:
    def test_single_rack_failure_fully_repaired(self):
        setup, stripes, queue = build(seed=3)
        store = setup.namenode.block_store
        # Pick a rack holding at least one block.
        rack = next(
            r for r in TOPO.rack_ids() if store.blocks_in_rack(r)
        )
        lose(setup, queue, 1.0, RACK_LOSS, rack)
        setup.sim.run()
        report = loss_report(queue)
        # EAR at c=1 keeps <= 1 block of each stripe per rack, so a rack
        # failure is always survivable and repairable.
        assert report.unrecoverable == ()
        for stripe in stripes:
            for block_id in stripe.all_block_ids():
                assert len(store.replica_nodes(block_id)) == 1

    def test_blocks_lost_counts_each_block_once(self):
        # Under ReplicationScheme(3, 2) a rack holds two copies of some
        # blocks; losing both is still one lost block, and the report's
        # outcomes partition exactly the blocks it says were lost.
        setup, stripes, queue = build(encode=False, seed=3)
        store = setup.namenode.block_store
        rack = next(r for r in TOPO.rack_ids() if store.blocks_in_rack(r))
        lost = {
            block_id
            for node_id in TOPO.nodes_in_rack(rack)
            for block_id in store.blocks_on_node(node_id)
        }
        lose(setup, queue, 1.0, RACK_LOSS, rack)
        setup.sim.run()
        report = loss_report(queue)
        assert report.blocks_lost == len(lost)
        assert report.blocks_lost == (
            report.decoded
            + report.rereplicated
            + len(report.unrecoverable)
        )

    def test_repair_preserves_rack_diversity(self):
        from repro.core.relocation import PlacementMonitor

        setup, stripes, queue = build(seed=4)
        store = setup.namenode.block_store
        rack = next(r for r in TOPO.rack_ids() if store.blocks_in_rack(r))
        lose(setup, queue, 1.0, RACK_LOSS, rack)
        setup.sim.run()
        monitor = PlacementMonitor(TOPO, CODE)
        assert monitor.scan(store, stripes) == []

    def test_forced_rack_cap_violation_recorded_not_silent(self):
        """When every live candidate sits in a saturated rack, the repair
        still lands — but the <= c violation is recorded, not swallowed."""
        topo = ClusterTopology(
            nodes_per_rack=4, num_racks=6,
            intra_rack_bandwidth=1e6, cross_rack_bandwidth=1e6,
        )
        setup = build_cluster("ear", topo, CODE, SCHEME, 2, block_size=1000)
        populate_until_sealed(setup, 1)
        stripe = setup.namenode.sealed_stripes()[0]

        def encode():
            yield from setup.encoder.encode_stripe(stripe)

        setup.sim.process(encode())
        setup.sim.run()
        queue = make_queue(setup, 11)
        store = setup.namenode.block_store
        block = stripe.block_ids[0]
        home_rack = topo.rack_of(store.replica_nodes(block)[0])
        # Six racks and a 6-block stripe at c=1: after this whole rack
        # fails, every replacement rack already holds a stripe member.
        lose(setup, queue, 1.0, RACK_LOSS, home_rack)
        setup.sim.run()
        assert loss_report(queue).unrecoverable == ()
        # One relocation request per forced violation, naming the stripe.
        assert queue.relocation_requests == [stripe]
        (landed,) = store.replica_nodes(block)
        landed_rack = topo.rack_of(landed)
        assert landed_rack != home_rack
        sharing = [
            member for member in stripe.all_block_ids()
            if member != block
            and topo.rack_of(store.replica_nodes(member)[0]) == landed_rack
        ]
        assert sharing, "the repair landed in a rack already at the cap"

    def test_no_violations_recorded_when_compliant_racks_exist(self):
        setup, stripes, queue = build(seed=6)
        store = setup.namenode.block_store
        victim = store.replica_nodes(stripes[0].block_ids[0])[0]
        lose(setup, queue, 1.0, NODE_LOSS, victim)
        setup.sim.run()
        # Eight racks leave spare racks for every 6-block stripe: the
        # repair never needs to break the cap.
        assert queue.relocation_requests == []

    def test_excess_failures_reported_unrecoverable(self):
        setup, stripes, queue = build(seed=5)
        store = setup.namenode.block_store
        stripe = stripes[0]
        # Manually lose n - k blocks first, then fail a node holding one
        # of the remaining ones: that stripe cannot lose more.
        sacrificed = stripe.all_block_ids()[: CODE.num_parity]
        for block_id in sacrificed:
            store.remove_replica(block_id, store.replica_nodes(block_id)[0])
        survivor_block = stripe.all_block_ids()[CODE.num_parity]
        victim = store.replica_nodes(survivor_block)[0]
        lose(setup, queue, 1.0, NODE_LOSS, victim)
        setup.sim.run()
        report = loss_report(queue)
        assert survivor_block in report.unrecoverable


class TestFailedNodeStaysEmpty:
    @pytest.mark.parametrize("seed", range(20))
    def test_repairs_never_land_on_the_failed_node(self, seed):
        """With only 12 nodes to choose from, a repair engine that did not
        see the victim as down would routinely hand it its own blocks
        back."""
        topo = ClusterTopology(
            nodes_per_rack=2, num_racks=6,
            intra_rack_bandwidth=1e6, cross_rack_bandwidth=1e6,
        )
        setup = build_cluster("ear", topo, CODE, SCHEME, seed, block_size=1000)
        populate_until_sealed(setup, 4)

        def encode_all():
            for stripe in setup.namenode.sealed_stripes()[:4]:
                yield from setup.encoder.encode_stripe(stripe)

        setup.sim.process(encode_all())
        setup.sim.run()
        queue = make_queue(setup, seed)
        store = setup.namenode.block_store
        counts = store.replica_count_per_node()
        victim = max(sorted(counts), key=lambda n: counts[n])
        lose(setup, queue, 1.0, NODE_LOSS, victim)
        setup.sim.run()
        assert loss_report(queue).blocks_lost > 0
        assert not store.blocks_on_node(victim)
        assert not setup.network.is_up(victim)
