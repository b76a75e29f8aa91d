"""Network model: transfer timing, link sharing, disks, externals."""

import pytest

from repro.cluster.topology import ClusterTopology
from repro.sim.engine import Simulator
from repro.sim.netsim import DiskModel, Network


@pytest.fixture
def topo():
    # Two racks of two nodes; 100 B/s everywhere for easy arithmetic.
    return ClusterTopology(
        nodes_per_rack=2,
        num_racks=2,
        intra_rack_bandwidth=100.0,
        cross_rack_bandwidth=100.0,
    )


def run_transfer(sim, net, src, dst, size, **kw):
    done = []

    def proc():
        yield from net.transfer(src, dst, size, **kw)
        done.append(sim.now)

    sim.process(proc())
    sim.run()
    return done[0]


class TestTransferTiming:
    def test_intra_rack(self, topo):
        sim = Simulator()
        net = Network(sim, topo)
        assert run_transfer(sim, net, 0, 1, 200.0) == 2.0

    def test_cross_rack(self, topo):
        sim = Simulator()
        net = Network(sim, topo)
        assert run_transfer(sim, net, 0, 2, 100.0) == 1.0

    def test_cross_rack_bottleneck(self):
        topo = ClusterTopology(
            nodes_per_rack=2, num_racks=2,
            intra_rack_bandwidth=100.0, cross_rack_bandwidth=25.0,
        )
        sim = Simulator()
        net = Network(sim, topo)
        # The rack uplink at 25 B/s binds.
        assert run_transfer(sim, net, 0, 2, 100.0) == 4.0

    def test_local_transfer_without_disk_is_instant(self, topo):
        sim = Simulator()
        net = Network(sim, topo)
        assert run_transfer(sim, net, 1, 1, 1000.0) == 0.0

    def test_size_validation(self, topo):
        sim = Simulator()
        net = Network(sim, topo)
        with pytest.raises(ValueError):
            list(net.transfer(0, 1, 0))

    def test_stats_accounting(self, topo):
        sim = Simulator()
        net = Network(sim, topo)
        run_transfer(sim, net, 0, 2, 100.0)
        sim2 = Simulator()
        assert net.stats.transfers == 1
        assert net.stats.bytes_total == 100.0
        assert net.stats.cross_rack_transfers == 1
        run_transfer(sim, net, 0, 1, 50.0)
        assert net.stats.transfers == 2
        assert net.stats.bytes_cross_rack == 100.0


class TestLinkSharing:
    def test_shared_destination_serialises(self, topo):
        sim = Simulator()
        net = Network(sim, topo)
        done = []

        def flow(src):
            yield from net.transfer(src, 3, 100.0)
            done.append((src, sim.now))

        sim.process(flow(0))
        sim.process(flow(1))
        sim.run()
        assert done == [(0, 1.0), (1, 2.0)]

    def test_disjoint_paths_run_concurrently(self, topo):
        sim = Simulator()
        net = Network(sim, topo)
        done = []

        def flow(src, dst):
            yield from net.transfer(src, dst, 100.0)
            done.append(sim.now)

        sim.process(flow(0, 1))
        sim.process(flow(2, 3))
        sim.run()
        assert done == [1.0, 1.0]

    def test_rack_uplink_is_shared_across_nodes(self):
        topo = ClusterTopology(
            nodes_per_rack=3, num_racks=2,
            intra_rack_bandwidth=100.0, cross_rack_bandwidth=100.0,
        )
        sim = Simulator()
        net = Network(sim, topo)
        done = []

        def flow(src, dst):
            yield from net.transfer(src, dst, 100.0)
            done.append(sim.now)

        # Two different rack-0 nodes to two different rack-1 nodes: the
        # rack-0 uplink serialises them.
        sim.process(flow(0, 3))
        sim.process(flow(1, 4))
        sim.run()
        assert sorted(done) == [1.0, 2.0]


class TestBandwidthOverrides:
    def test_node_derating(self, topo):
        sim = Simulator()
        net = Network(sim, topo)
        net.set_node_bandwidth(0, up=50.0)
        assert run_transfer(sim, net, 0, 1, 100.0) == 2.0

    def test_rack_derating(self, topo):
        sim = Simulator()
        net = Network(sim, topo)
        net.set_rack_bandwidth(1, down=20.0)
        assert run_transfer(sim, net, 0, 2, 100.0) == 5.0

    def test_invalid_bandwidths_rejected(self, topo):
        net = Network(Simulator(), topo)
        with pytest.raises(ValueError):
            net.set_node_bandwidth(0, up=0)
        with pytest.raises(ValueError):
            net.set_rack_bandwidth(0, down=-5)

    @pytest.mark.parametrize("bandwidth", [0.0, -5.0, float("nan")])
    @pytest.mark.parametrize("where", ["external", "node", "rack", "disk"])
    def test_bandwidths_it_cannot_run_are_rejected(self, topo, where, bandwidth):
        net = Network(Simulator(), topo)
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            if where == "external":
                net.add_external("master", bandwidth=bandwidth)
            elif where == "node":
                net.set_node_bandwidth(0, down=bandwidth)
            elif where == "rack":
                net.set_rack_bandwidth(1, up=bandwidth)
            else:
                DiskModel(write_bandwidth=bandwidth)
        assert net.node_down_bandwidth(0) == net.rack_up_bandwidth(1) == 100.0

    def test_unknown_node_or_rack_is_a_key_error(self, topo):
        net = Network(Simulator(), topo)
        with pytest.raises(KeyError):
            net.set_node_bandwidth(999, up=5.0)
        with pytest.raises(KeyError):
            net.set_rack_bandwidth(999, up=5.0)
        master = net.add_external("master")  # externals' negative ids
        net.set_node_bandwidth(master, up=5.0)
        assert net.node_up_bandwidth(master) == 5.0

    def test_lookups(self, topo):
        net = Network(Simulator(), topo)
        net.set_node_bandwidth(1, up=10.0, down=20.0)
        assert net.node_up_bandwidth(1) == 10.0
        assert net.node_down_bandwidth(1) == 20.0
        assert net.node_up_bandwidth(0) == 100.0
        assert net.rack_up_bandwidth(0) == 100.0


class TestDisks:
    def test_local_read(self, topo):
        sim = Simulator()
        net = Network(sim, topo, disk=DiskModel(read_bandwidth=50.0, write_bandwidth=10.0))
        assert run_transfer(sim, net, 0, 0, 100.0, write_disk=False) == 2.0

    def test_remote_transfer_includes_disk_write(self, topo):
        sim = Simulator()
        net = Network(sim, topo, disk=DiskModel(read_bandwidth=1000.0, write_bandwidth=25.0))
        # Destination disk write at 25 B/s binds the stream.
        assert run_transfer(sim, net, 0, 1, 100.0, read_disk=False) == 4.0

    def test_disk_ops_serialise(self, topo):
        sim = Simulator()
        net = Network(sim, topo, disk=DiskModel(read_bandwidth=100.0, write_bandwidth=100.0))
        done = []

        def op():
            yield from net.disk_read(0, 100.0)
            done.append(sim.now)

        sim.process(op())
        sim.process(op())
        sim.run()
        assert done == [1.0, 2.0]

    def test_disk_ops_without_model_raise(self, topo):
        net = Network(Simulator(), topo)
        with pytest.raises(ValueError):
            list(net.disk_read(0, 10.0))
        with pytest.raises(ValueError):
            list(net.transfer(0, 1, 10.0, read_disk=True))

    def test_disk_model_validation(self):
        with pytest.raises(ValueError):
            DiskModel(read_bandwidth=0)
        with pytest.raises(ValueError):
            DiskModel(write_bandwidth=-1)


class TestExternals:
    def test_external_transfer_counts_cross_rack(self, topo):
        sim = Simulator()
        net = Network(sim, topo)
        master = net.add_external("master")
        assert master < 0
        assert net.rack_of(master) is None
        assert net.is_cross_rack(master, 0)
        assert run_transfer(sim, net, master, 0, 100.0) == 1.0

    def test_external_custom_bandwidth(self, topo):
        sim = Simulator()
        net = Network(sim, topo)
        slow = net.add_external("slow", bandwidth=10.0)
        assert run_transfer(sim, net, slow, 0, 100.0) == 10.0

    def test_external_skips_disk(self, topo):
        sim = Simulator()
        net = Network(sim, topo, disk=DiskModel(read_bandwidth=1.0, write_bandwidth=1.0))
        master = net.add_external("master")
        # Source is external: no source disk; destination write at 1 B/s.
        assert run_transfer(sim, net, master, 0, 100.0, read_disk=True) == 100.0

    def test_distinct_external_ids(self, topo):
        net = Network(Simulator(), topo)
        assert net.add_external("a") != net.add_external("b")
