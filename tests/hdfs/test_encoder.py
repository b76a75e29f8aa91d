"""StripeEncoder: the three-step encoding operation under simulation."""

import random

import pytest

from repro.cluster.topology import ClusterTopology
from repro.core.ear import EncodingAwareReplication
from repro.core.policy import ReplicationScheme
from repro.core.random_replication import RandomReplication
from repro.core.stripe import PreEncodingStore, StripeState
from repro.erasure.codec import CodeParams
from repro.erasure.stream import StreamingDataPlane
from repro.faults.retry import RetryPolicy
from repro.hdfs.client import CFSClient
from repro.hdfs.encoder import StripeEncoder
from repro.hdfs.namenode import NameNode
from repro.sim.engine import Simulator
from repro.sim.metrics import ThroughputMeter, TimeSeries
from repro.sim.netsim import DiskModel, Network, TransferAborted


CODE = CodeParams(6, 4)


def build(policy_name, seed=1, disk=None, nodes_per_rack=3, num_racks=8,
          bandwidth=100.0, block_size=100, stripes=3, **encoder_kwargs):
    topo = ClusterTopology(
        nodes_per_rack=nodes_per_rack, num_racks=num_racks,
        intra_rack_bandwidth=bandwidth, cross_rack_bandwidth=bandwidth,
    )
    rng = random.Random(seed)
    if policy_name == "ear":
        policy = EncodingAwareReplication(topo, CODE, rng=rng)
    else:
        policy = RandomReplication(
            topo, rng=rng, store=PreEncodingStore(CODE.k)
        )
    sim = Simulator()
    net = Network(sim, topo, disk=disk)
    nn = NameNode(topo, policy, block_size=block_size)
    meter = ThroughputMeter()
    timeline = TimeSeries()
    encoder_kwargs.setdefault("rng", rng)
    encoder = StripeEncoder(
        sim, net, nn, nn.make_planner(CODE, rng=rng),
        throughput=meter, timeline=timeline, **encoder_kwargs,
    )
    # Pre-place blocks until stripes seal (metadata only).
    while len(nn.sealed_stripes()) < stripes:
        nn.allocate_block(writer_node=rng.randrange(topo.num_nodes))
    return sim, net, nn, encoder, meter, timeline


class TestEncodeStripe:
    @pytest.mark.parametrize("policy_name", ["rr", "ear"])
    def test_metadata_after_encoding(self, policy_name):
        sim, net, nn, encoder, __, __timeline = build(policy_name)
        stripe = nn.sealed_stripes()[0]
        sim.process(encoder.encode_stripe(stripe))
        sim.run()
        assert stripe.state == StripeState.ENCODED
        assert len(stripe.parity_block_ids) == CODE.num_parity
        # Every data block retains exactly one replica.
        for block_id in stripe.block_ids:
            assert len(nn.block_locations(block_id)) == 1
        # The post-encoding stripe occupies n distinct nodes (RR may rarely
        # share nodes; EAR never does).
        nodes = [nn.block_locations(b)[0] for b in stripe.all_block_ids()]
        if policy_name == "ear":
            assert len(set(nodes)) == CODE.n

    def test_ear_zero_cross_downloads(self):
        sim, net, nn, encoder, __, __t = build("ear")
        for stripe in nn.sealed_stripes():
            sim.process(encoder.encode_stripe(stripe))
        sim.run()
        assert all(r.cross_rack_downloads == 0 for r in encoder.records)

    def test_rr_has_cross_downloads(self):
        sim, net, nn, encoder, __, __t = build("rr")
        for stripe in nn.sealed_stripes():
            sim.process(encoder.encode_stripe(stripe))
        sim.run()
        assert sum(r.cross_rack_downloads for r in encoder.records) > 0

    def test_encoding_takes_simulated_time(self):
        sim, net, nn, encoder, __, __t = build("ear")
        stripe = nn.sealed_stripes()[0]
        sim.process(encoder.encode_stripe(stripe))
        sim.run()
        record = encoder.records[0]
        assert record.duration > 0
        # Lower bound: the encoder ingress must carry the non-local data
        # blocks and its egress the cross-rack parity uploads.
        assert record.duration >= 100 / 100.0

    def test_meter_and_timeline_updated(self):
        sim, net, nn, encoder, meter, timeline = build("ear")
        meter.start(sim.now)
        stripes = nn.sealed_stripes()[:2]
        sim.process(encoder.encode_stripes(stripes))
        sim.run()
        assert meter.total_bytes == 2 * CODE.k * 100
        assert len(timeline) == 2

    def test_compute_bandwidth_adds_time(self):
        sim, net, nn, encoder, __, __t = build("ear")
        sim2, net2, nn2, encoder2, __2, __t2 = build("ear")
        encoder2.compute_bandwidth = 100.0  # 4 blocks of 100 B -> 4 s extra
        s1, s2 = nn.sealed_stripes()[0], nn2.sealed_stripes()[0]
        sim.process(encoder.encode_stripe(s1))
        sim2.process(encoder2.encode_stripe(s2))
        sim.run()
        sim2.run()
        assert (
            encoder2.records[0].duration
            == pytest.approx(encoder.records[0].duration + 4.0)
        )

    def test_invalid_compute_bandwidth(self):
        sim, net, nn, encoder, __, __t = build("ear")
        with pytest.raises(ValueError):
            StripeEncoder(sim, net, nn, encoder.planner, compute_bandwidth=0)

    def test_fixed_encoder_node_used(self):
        sim, net, nn, encoder, __, __t = build("ear")
        stripe = nn.sealed_stripes()[0]
        topo = nn.topology
        encoder_node = topo.nodes_in_rack(stripe.core_rack)[1]
        sim.process(encoder.encode_stripe(stripe, encoder_node=encoder_node))
        sim.run()
        assert encoder.records[0].encoder_node == encoder_node

    def test_encode_stripes_sequential(self):
        sim, net, nn, encoder, __, __t = build("ear")
        stripes = nn.sealed_stripes()[:3]
        results = []

        def run():
            records = yield from encoder.encode_stripes(stripes)
            results.extend(records)

        sim.process(run())
        sim.run()
        assert len(results) == 3
        finishes = [r.finish_time for r in results]
        starts = [r.start_time for r in results]
        assert all(starts[i + 1] >= finishes[i] for i in range(2))


class TestCrossRackCountMatchesTraffic:
    """``EncodedStripe`` counts the sources the encoder really used."""

    @pytest.mark.parametrize("dead_holder, downloads", [(None, 0), (15, 3)])
    def test_record_sums_to_the_network_count(self, dead_holder, downloads):
        sim, net, nn, encoder, __, __t = build(
            "ear", seed=1, stripes=1, retry=RetryPolicy()
        )
        stripe = nn.sealed_stripes()[0]
        assert stripe.core_rack == 5
        if dead_holder is not None:
            # Node 15 holds the core-rack copy of the stripe's first block.
            assert dead_holder in nn.block_locations(stripe.block_ids[0])
            net.fail_endpoint(dead_holder)
        sim.process(encoder.encode_stripe(stripe, encoder_node=16))
        sim.run()
        (record,) = encoder.records
        assert record.cross_rack_downloads == downloads
        assert (
            record.cross_rack_downloads + record.cross_rack_uploads
            == net.stats.cross_rack_transfers
        )


class TestFailFast:
    """``retry=None``: exactly one attempt, planned against liveness."""

    def test_mid_flight_abort_propagates_bare_and_commits_nothing(self):
        plane = StreamingDataPlane(CODE, seed=1)
        jitter = random.Random(99)
        sim, net, nn, encoder, __, __t = build(
            "ear", data_plane=plane, rng=jitter
        )
        stripe = nn.sealed_stripes()[0]
        node = nn.topology.nodes_in_rack(stripe.core_rack)[0]
        failures = []

        def run():
            try:
                yield from encoder.encode_stripe(stripe, encoder_node=node)
            except Exception as exc:
                failures.append((exc, sim.now))

        def kill():
            yield sim.timeout(0.5)
            net.fail_endpoint(node)

        sim.process(run())
        sim.process(kill())
        sim.run()
        ((error, when),) = failures
        assert type(error) is TransferAborted  # not RetryExhausted
        assert when == 0.5  # no backoff ...
        assert jitter.getstate() == random.Random(99).getstate()  # no draw
        assert stripe.state == StripeState.SEALED
        assert encoder.records == []
        assert plane.payloads == {}

    def test_down_pinned_node_is_replaced_by_a_live_eligible_one(self):
        sim, net, nn, encoder, __, __t = build("ear")
        stripe = nn.sealed_stripes()[0]
        core = nn.topology.nodes_in_rack(stripe.core_rack)
        net.fail_endpoint(core[0])
        sim.process(encoder.encode_stripe(stripe, encoder_node=core[0]))
        sim.run()
        (record,) = encoder.records
        assert record.encoder_node in core[1:]
        assert stripe.state == StripeState.ENCODED

    @pytest.mark.parametrize("damage", ["down", "corrupted"])
    def test_unusable_replica_is_never_a_source(self, damage):
        sim, net, nn, encoder, __, __t = build("rr")
        stripe = nn.sealed_stripes()[0]
        block_id = stripe.block_ids[0]
        bad = nn.block_locations(block_id)[0]
        encoder_node = next(
            n for n in nn.topology.node_ids()
            if n not in nn.block_locations(block_id)
        )
        if damage == "down":
            net.fail_endpoint(bad)
        else:
            nn.block_store.mark_corrupted(block_id, bad)
        plan = encoder.planner.plan(
            stripe, encoder_node=encoder_node, source_ok=encoder._source_ok
        )
        assert plan.sources[block_id] != bad
        sim.process(encoder.encode_stripe(stripe, encoder_node=encoder_node))
        sim.run()
        assert stripe.state == StripeState.ENCODED
        assert net.stats.aborted == 0


class TestDiskBoundTestbedBehaviour:
    def test_single_rack_testbed_encoding_reads_local_disk(self):
        """On single-node racks the EAR encoder holds every data block
        locally: its disk is the only download resource."""
        topo = ClusterTopology(
            nodes_per_rack=1, num_racks=12,
            intra_rack_bandwidth=100.0, cross_rack_bandwidth=100.0,
        )
        rng = random.Random(3)
        policy = EncodingAwareReplication(
            topo, CODE, scheme=ReplicationScheme(2, 2), rng=rng
        )
        sim = Simulator()
        net = Network(
            sim, topo, disk=DiskModel(read_bandwidth=50.0, write_bandwidth=200.0)
        )
        nn = NameNode(topo, policy, block_size=100)
        encoder = StripeEncoder(sim, net, nn, nn.make_planner(CODE, rng=rng))
        while not nn.sealed_stripes():
            nn.allocate_block()
        stripe = nn.sealed_stripes()[0]
        sim.process(encoder.encode_stripe(stripe))
        sim.run()
        record = encoder.records[0]
        # 4 local reads at 50 B/s serialise (8 s); the 2 parity uploads
        # then serialise on the encoder's egress NIC (1 s each).
        assert record.duration == pytest.approx(8.0 + 2.0)
        assert record.cross_rack_downloads == 0
        assert record.cross_rack_uploads == 2
