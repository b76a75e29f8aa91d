"""Chaos integration: failures racing the encoding pipeline.

Codifies the races the failure drill exposed: a rack failure landing in
the middle of a batch encode must never lose data or leave the metadata
inconsistent, and one PlacementMonitor sweep must restore full rack fault
tolerance afterwards.
"""

import random

import pytest

from repro.cluster.topology import ClusterTopology
from repro.core.policy import ReplicationScheme
from repro.core.relocation import BlockMover, PlacementMonitor
from repro.core.stripe import StripeState
from repro.erasure.codec import CodeParams
from repro.experiments.runner import build_cluster, populate_until_sealed
from repro.faults.chaos import RACK_LOSS
from repro.faults.repair import RepairQueue
from repro.faults.retry import RetryPolicy
from tests.faults.losses import lose, loss_report

CODE = CodeParams(6, 4)
SCHEME = ReplicationScheme(3, 2)
TOPO = ClusterTopology(
    nodes_per_rack=4, num_racks=10,
    intra_rack_bandwidth=1e6, cross_rack_bandwidth=1e6,
)
#: A failed rack is down on the network, so an encode it interrupts aborts
#: mid-transfer and must re-plan instead of dying.
RETRY = RetryPolicy(max_attempts=6, base_delay=0.5, max_delay=4.0)


def run_chaos(seed, fail_at, fail_rack):
    setup = build_cluster(
        "ear", TOPO, CODE, SCHEME, seed, block_size=64000, retry=RETRY
    )
    populate_until_sealed(setup, 12)
    stripes = setup.namenode.sealed_stripes()[:12]
    queue = RepairQueue(
        setup.sim, setup.network, setup.namenode, setup.raidnode,
        rng=random.Random(seed + 1), retry=RETRY,
    )

    def encode_all():
        for stripe in stripes:
            yield from setup.encoder.encode_stripe(stripe)

    setup.sim.process(encode_all())
    lose(setup, queue, fail_at, RACK_LOSS, fail_rack)
    setup.sim.run()
    return setup, stripes, queue


# The wave ends near t=4.4 s: only the (1, 1.0) failure lands inside it
# (encoder transfers abort and re-plan); the others hit a settled cluster.
@pytest.mark.parametrize(
    "seed,fail_at", [(1, 1.0), (1, 5.0), (2, 30.0), (3, 80.0)]
)
def test_rack_failure_mid_encode_never_loses_data(seed, fail_at):
    setup, stripes, queue = run_chaos(seed, fail_at, fail_rack=2)
    store = setup.namenode.block_store
    report = loss_report(queue)
    assert report.blocks_lost > 0
    assert report.unrecoverable == ()
    if fail_at < 4.0:
        assert setup.network.stats.aborted > 0, "the failure missed the wave"
    # Every stripe finished encoding and every block exists somewhere.
    for stripe in stripes:
        assert stripe.state == StripeState.ENCODED
        for block_id in stripe.all_block_ids():
            assert len(store.replica_nodes(block_id)) >= 1

    # One monitor sweep restores full rack fault tolerance.
    monitor = PlacementMonitor(TOPO, CODE)
    mover = BlockMover(TOPO, CODE, rng=random.Random(seed + 9))
    violating = monitor.scan(store, stripes)

    def sweep():
        for stripe in violating:
            yield from setup.raidnode.relocate_if_violating(stripe, mover)

    setup.sim.process(sweep())
    setup.sim.run()
    assert monitor.scan(store, stripes) == []


def test_metadata_consistent_after_chaos():
    setup, stripes, __ = run_chaos(7, 20.0, fail_rack=4)
    store = setup.namenode.block_store
    per_node = store.replica_count_per_node()
    assert sum(per_node.values()) == sum(
        len(store.replica_nodes(b.block_id)) for b in store.blocks()
    )
    # No replica is recorded on two nodes for the same (block, node) pair —
    # implied by the store's invariants, but assert the rack counts agree.
    per_rack = store.replica_count_per_rack()
    assert sum(per_rack.values()) == sum(per_node.values())
