"""Checksum scrubbing: detection, down-node deferral, repair handoff."""

import math
import random

import pytest

from repro.cluster.topology import ClusterTopology
from repro.core.policy import ReplicationScheme
from repro.erasure.codec import CodeParams
from repro.experiments.runner import build_cluster, populate_until_sealed
from repro.faults.repair import RepairQueue
from repro.faults.scrubber import Scrubber

CODE = CodeParams(6, 4)
SCHEME = ReplicationScheme(3, 2)
TOPO = ClusterTopology(
    nodes_per_rack=4, num_racks=8,
    intra_rack_bandwidth=1e6, cross_rack_bandwidth=1e6,
)


def build(seed=1, encode=True, interval=10.0):
    setup = build_cluster("ear", TOPO, CODE, SCHEME, seed, block_size=1000)
    populate_until_sealed(setup, 2)
    sealed = setup.namenode.sealed_stripes()[:2]
    if encode:
        def encode_all():
            for stripe in sealed:
                yield from setup.encoder.encode_stripe(stripe)

        setup.sim.process(encode_all())
        setup.sim.run()
    queue = RepairQueue(
        setup.sim, setup.network, setup.namenode, setup.raidnode,
        rng=random.Random(seed + 90),
    )
    scrubber = Scrubber(
        setup.sim, setup.network, setup.namenode, queue, interval=interval
    )
    return setup, sealed, queue, scrubber


class TestScanning:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            build(interval=0.0)

    @pytest.mark.parametrize("interval", [-1.0, math.nan])
    def test_negative_or_nan_interval_rejected(self, interval):
        with pytest.raises(ValueError):
            build(encode=False, interval=interval)

    def test_clean_store_yields_nothing(self):
        __, __s, queue, scrubber = build()
        assert scrubber.scan_once() == 0
        assert scrubber.detected == []
        assert queue.pending_count == 0

    def test_detection_removes_replica_and_enqueues_repair(self):
        setup, sealed, queue, scrubber = build()
        store = setup.namenode.block_store
        block = sealed[0].block_ids[0]
        node = store.replica_nodes(block)[0]
        store.mark_corrupted(block, node)
        assert scrubber.scan_once() == 1
        assert scrubber.detected[0][1:] == (block, node)
        assert node not in store.replica_nodes(block)
        assert queue.pending_count == 1
        # The repair decodes the block back from its stripe.
        setup.sim.run()
        assert queue.outcomes["decoded"] == 1
        assert len(store.replica_nodes(block)) == 1

    def test_detection_counted_once_under_both_names(self):
        setup, sealed, __q, scrubber = build()
        store = setup.namenode.block_store
        block = sealed[0].block_ids[0]
        store.mark_corrupted(block, store.replica_nodes(block)[0])
        scrubber.scan_once()
        assert scrubber.metrics.counts == {"scrub_detections": 1}
        summary = scrubber.metrics.summary()
        assert summary["scrub_detections"] == summary[
            "corruption_detected"
        ] == 1

    def test_down_node_defers_detection_until_restore(self):
        setup, sealed, __q, scrubber = build()
        store = setup.namenode.block_store
        block = sealed[0].block_ids[0]
        node = store.replica_nodes(block)[0]
        store.mark_corrupted(block, node)
        setup.network.fail_endpoint(node)
        assert scrubber.scan_once() == 0  # cannot verify a dead disk
        setup.network.restore_endpoint(node)
        assert scrubber.scan_once() == 1

    def test_scan_racing_inflight_repair_does_not_double_enqueue(self):
        """A scan that detects corruption on a block whose repair is
        already in flight must ride the existing repair event, not queue
        a second repair of the same block."""
        setup, sealed, queue, scrubber = build(encode=False)
        store = setup.namenode.block_store
        block = sealed[0].block_ids[0]
        node = store.replica_nodes(block)[0]
        # The block is already damaged and enqueued (repair in flight)...
        store.remove_replica(block, node)
        first = queue.enqueue(block)
        # ...when the scrubber finds rot on the remaining copy.
        survivor = store.replica_nodes(block)[0]
        store.mark_corrupted(block, survivor)
        assert scrubber.scan_once() == 1
        assert queue.enqueue(block) is first
        assert queue.pending_count == 1
        setup.sim.run()
        # One repair outcome for the block, not two.
        assert sum(queue.outcomes.values()) == 1
        assert queue.pending_count == 0

    def test_periodic_loop_scans_on_schedule(self):
        setup, sealed, queue, scrubber = build(interval=10.0)
        store = setup.namenode.block_store
        block = sealed[1].block_ids[0]
        node = store.replica_nodes(block)[0]
        start = setup.sim.now

        def corrupt_later():
            yield setup.sim.timeout(15.0)  # lands between scans 1 and 2
            store.mark_corrupted(block, node)

        scrubber.start()
        setup.sim.process(corrupt_later())
        setup.sim.run(until=start + 35.0)
        assert scrubber.scans == 3
        assert [d[1] for d in scrubber.detected] == [block]
        # Caught by the second scan, 20 s in — not the first.
        assert scrubber.detected[0][0] == pytest.approx(start + 20.0)
        assert queue.outcomes["decoded"] == 1
