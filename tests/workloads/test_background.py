"""Background traffic streams and UDP cross-traffic derating."""

import random

import pytest

from repro.cluster.topology import ClusterTopology
from repro.sim.engine import Simulator
from repro.sim.netsim import Network
from repro.workloads.background import BackgroundTraffic, UdpCrossTraffic


def build(cross_fraction=0.5, rate=5.0, seed=1, nodes_per_rack=3):
    topo = ClusterTopology(
        nodes_per_rack=nodes_per_rack, num_racks=4,
        intra_rack_bandwidth=10_000.0, cross_rack_bandwidth=10_000.0,
    )
    sim = Simulator()
    net = Network(sim, topo)
    traffic = BackgroundTraffic(
        sim, net, rate=rate, rng=random.Random(seed),
        mean_size=100.0, cross_rack_fraction=cross_fraction,
    )
    return sim, net, traffic


class TestBackgroundTraffic:
    def test_limit(self):
        sim, net, traffic = build()
        sim.process(traffic.run(limit=25))
        sim.run()
        assert len(traffic.completed) == 25
        assert net.stats.transfers == 25

    def test_cross_rack_mix(self):
        sim, net, traffic = build(cross_fraction=0.5, rate=50.0)
        sim.process(traffic.run(limit=400))
        sim.run()
        cross = sum(
            1 for src, dst, __ in traffic.completed
            if net.is_cross_rack(src, dst)
        )
        assert 0.35 < cross / 400 < 0.65

    def test_all_cross(self):
        sim, net, traffic = build(cross_fraction=1.0)
        sim.process(traffic.run(limit=50))
        sim.run()
        assert all(
            net.is_cross_rack(src, dst) for src, dst, __ in traffic.completed
        )

    def test_all_intra(self):
        sim, net, traffic = build(cross_fraction=0.0)
        sim.process(traffic.run(limit=50))
        sim.run()
        assert not any(
            net.is_cross_rack(src, dst) for src, dst, __ in traffic.completed
        )

    def test_single_node_racks_fall_back_to_cross(self):
        sim, net, traffic = build(cross_fraction=0.0, nodes_per_rack=1)
        sim.process(traffic.run(limit=10))
        sim.run()
        assert len(traffic.completed) == 10

    def test_stop(self):
        sim, net, traffic = build(rate=100.0)

        def stopper():
            yield sim.timeout(0.5)
            traffic.stop()

        sim.process(traffic.run())
        sim.process(stopper())
        sim.run()
        assert len(traffic.completed) < 200

    def test_exponential_sizes(self):
        sim, net, traffic = build(rate=50.0)
        sim.process(traffic.run(limit=500))
        sim.run()
        sizes = [s for __, __d, s in traffic.completed]
        assert abs(sum(sizes) / len(sizes) - 100.0) < 15.0

    def test_validation(self):
        sim, net, traffic = build()
        with pytest.raises(ValueError):
            BackgroundTraffic(sim, net, rate=0, rng=random.Random(1))
        with pytest.raises(ValueError):
            BackgroundTraffic(
                sim, net, rate=1, rng=random.Random(1),
                cross_rack_fraction=1.5,
            )

    @pytest.mark.parametrize("nodes_per_rack,num_racks,fraction", [
        (4, 1, 1.0),   # cross-rack requests with no second rack
        (4, 1, 0.5),
        (1, 1, 0.0),   # one node: no partner at all
        (1, 1, 1.0),
    ])
    def test_clusters_without_a_pair_are_rejected(
        self, nodes_per_rack, num_racks, fraction
    ):
        topo = ClusterTopology(nodes_per_rack=nodes_per_rack, num_racks=num_racks)
        net = Network(Simulator(), topo)
        with pytest.raises(ValueError):
            BackgroundTraffic(
                net.sim, net, rate=1.0, rng=random.Random(1),
                cross_rack_fraction=fraction,
            )

    def test_one_rack_intra_traffic_runs(self):
        topo = ClusterTopology(nodes_per_rack=4, num_racks=1)
        sim = Simulator()
        net = Network(sim, topo)
        traffic = BackgroundTraffic(
            sim, net, rate=5.0, rng=random.Random(1), mean_size=100.0,
            cross_rack_fraction=0.0,
        )
        sim.process(traffic.run(limit=10))
        sim.run()
        assert len(traffic.completed) == 10

    @pytest.mark.parametrize("sizes", [[3, 3, 3, 3], [1, 4, 2, 1, 5]])
    def test_pairs_match_a_per_request_rebuild(self, sizes):
        # The partner tables must draw what filtering every node on each
        # request drew: the same candidates in node-id order.
        topo = ClusterTopology(nodes_per_rack=sizes)
        net = Network(Simulator(), topo)
        traffic = BackgroundTraffic(
            net.sim, net, rate=1.0, rng=random.Random(5),
            cross_rack_fraction=0.5,
        )
        rng = random.Random(5)
        for __ in range(300):
            src = rng.randrange(topo.num_nodes)
            src_rack = topo.rack_of(src)
            if rng.random() < 0.5:
                candidates = [
                    n for n in topo.node_ids() if topo.rack_of(n) != src_rack
                ]
            else:
                candidates = [
                    n for n in topo.nodes_in_rack(src_rack) if n != src
                ] or [n for n in topo.node_ids() if n != src]
            assert traffic._pick_pair() == (src, rng.choice(candidates))
        assert traffic.rng.getstate() == rng.getstate()


class TestUdpCrossTraffic:
    def test_testbed_pairs(self):
        topo = ClusterTopology.testbed()
        udp = UdpCrossTraffic.testbed_pairs(topo, rate=25e6)
        assert len(udp.pairs) == 6
        flat = [n for pair in udp.pairs for n in pair]
        assert sorted(flat) == list(range(12))

    def test_apply_derates_nics(self):
        topo = ClusterTopology.testbed(bandwidth=125e6)
        net = Network(Simulator(), topo)
        udp = UdpCrossTraffic(pairs=((0, 1),), rate=25e6)
        udp.apply(net)
        assert net.node_up_bandwidth(0) == pytest.approx(100e6)
        assert net.node_down_bandwidth(1) == pytest.approx(100e6)
        # Unrelated directions untouched.
        assert net.node_down_bandwidth(0) == pytest.approx(125e6)
        assert net.node_up_bandwidth(1) == pytest.approx(125e6)

    def test_zero_rate_noop(self):
        topo = ClusterTopology.testbed(bandwidth=125e6)
        net = Network(Simulator(), topo)
        UdpCrossTraffic(pairs=((0, 1),), rate=0).apply(net)
        assert net.node_up_bandwidth(0) == pytest.approx(125e6)

    def test_saturating_rate_rejected(self):
        topo = ClusterTopology.testbed(bandwidth=125e6)
        net = Network(Simulator(), topo)
        with pytest.raises(ValueError):
            UdpCrossTraffic(pairs=((0, 1),), rate=125e6).apply(net)

    def test_negative_rate_rejected(self):
        topo = ClusterTopology.testbed()
        net = Network(Simulator(), topo)
        with pytest.raises(ValueError):
            UdpCrossTraffic(pairs=((0, 1),), rate=-1).apply(net)

    def test_odd_node_count_drops_last(self):
        topo = ClusterTopology(nodes_per_rack=1, num_racks=5)
        udp = UdpCrossTraffic.testbed_pairs(topo, rate=1.0)
        assert len(udp.pairs) == 2
