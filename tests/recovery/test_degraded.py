"""Degraded read path: the normal → degraded → escalated ladder."""

import pytest

from repro.recovery import (
    DEGRADED,
    ESCALATED,
    NORMAL,
    DegradedReadPath,
    build_storm_cluster,
)
from repro.recovery.storm import encode_all


def build(encode=True, **kwargs):
    kwargs.setdefault("num_stripes", 2)
    sc = build_storm_cluster(policy="ear", seed=3, **kwargs)
    if encode:
        encode_all(sc)
    return sc


def run_read(sc, block_id, reader_node):
    results = []

    def driver():
        result = yield from sc.read_path.read_block(block_id, reader_node)
        results.append(result)

    sc.sim.process(driver())
    sc.sim.run()
    return results[0]


def reader_off(sc, nodes):
    """A live node that holds none of the given replicas."""
    return next(
        n for n in range(sc.setup.topology.num_nodes)
        if n not in nodes and sc.setup.network.is_up(n)
    )


class TestNormal:
    def test_healthy_replica_served_normally(self):
        sc = build()
        block = sc.stripes[0].block_ids[0]
        nodes = sc.store.replica_nodes(block)
        result = run_read(sc, block, reader_off(sc, nodes))
        assert result.mode == NORMAL
        assert result.served
        assert result.bytes_read == sc.store.block(block).size
        assert result.latency > 0.0
        assert sc.metrics.counts["normal_reads"] == 1

    def test_local_replica_costs_no_transfer(self):
        sc = build()
        block = sc.stripes[0].block_ids[0]
        local = sc.store.replica_nodes(block)[0]
        result = run_read(sc, block, local)
        assert result.mode == NORMAL
        assert result.cross_rack_bytes == 0.0


class TestDegraded:
    def test_lost_block_decoded_inline(self):
        sc = build()
        stripe = sc.stripes[0]
        block = stripe.block_ids[0]
        nodes = sc.store.replica_nodes(block)
        for node in nodes:
            sc.setup.network.fail_endpoint(node)
        result = run_read(sc, block, reader_off(sc, nodes))
        assert result.mode == DEGRADED
        assert result.served
        assert result.survivors_fetched == stripe.k
        assert result.bytes_read == stripe.k * sc.store.block(block).size
        summary = sc.metrics.summary(sc.sim.now)
        assert summary["degraded_reads"] == 1
        assert summary["degraded_read_mean_latency"] > 0.0

    def test_decode_penalty_adds_latency(self):
        # Same lost block, two decode bandwidths: the slower decoder must
        # report strictly higher latency for the identical fetch plan.
        latencies = {}
        for bandwidth in (1.0e9, 1.0e3):
            sc = build()
            sc.read_path.decode_bandwidth = bandwidth
            block = sc.stripes[0].block_ids[0]
            nodes = sc.store.replica_nodes(block)
            for node in nodes:
                sc.setup.network.fail_endpoint(node)
            latencies[bandwidth] = run_read(
                sc, block, reader_off(sc, nodes)
            ).latency
        assert latencies[1.0e3] > latencies[1.0e9]


class TestEscalation:
    def test_too_few_survivors_escalates_to_repair_queue(self):
        sc = build()
        stripe = sc.stripes[0]
        block = stripe.block_ids[0]
        doomed = set()
        members = stripe.all_block_ids()
        # Kill the block itself plus enough members that under k survive.
        for member in members[: len(members) - stripe.k + 1]:
            for node in sc.store.replica_nodes(member):
                doomed.add(node)
                sc.setup.network.fail_endpoint(node)
        result = run_read(sc, block, reader_off(sc, doomed))
        assert result.mode == ESCALATED
        assert not result.served
        # The hand-off reached the queue; by the time the simulation
        # drains, the block has been through a repair attempt.
        assert sum(sc.repair_queue.outcomes.values()) >= 1
        assert sc.metrics.counts["escalations"] == 1

    def test_unencoded_block_with_no_copies_escalates(self):
        sc = build(encode=False)
        block = sc.stripes[0].block_ids[0]
        for node in list(sc.store.replica_nodes(block)):
            sc.store.remove_replica(block, node)
        result = run_read(sc, block, 0)
        assert result.mode == ESCALATED
        # The escalated block went through the queue and was (correctly)
        # found unrecoverable: no copy, no encoded stripe to decode from.
        assert sc.repair_queue.outcomes["unrecoverable"] == 1

    def test_without_repair_queue_escalation_only_records(self):
        sc = build(encode=False)
        path = DegradedReadPath(
            sc.sim, sc.setup.network, sc.setup.namenode, sc.setup.raidnode,
            repair_queue=None, metrics=sc.metrics,
        )
        block = sc.stripes[0].block_ids[0]
        for node in list(sc.store.replica_nodes(block)):
            sc.store.remove_replica(block, node)
        results = []

        def driver():
            results.append((yield from path.read_block(block, 0)))

        sc.sim.process(driver())
        sc.sim.run()
        assert results[0].mode == ESCALATED
        assert sc.repair_queue.pending_count == 0


class TestValidation:
    def test_decode_bandwidth_must_be_positive(self):
        sc = build(encode=False)
        with pytest.raises(ValueError):
            DegradedReadPath(
                sc.sim, sc.setup.network, sc.setup.namenode,
                sc.setup.raidnode, decode_bandwidth=0.0,
            )
