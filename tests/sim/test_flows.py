"""Started flows, ``inflight()``, tracing and interrupts on the flow engine."""

import pytest

from repro.cluster.topology import ClusterTopology
from repro.sim.engine import Interrupt, Simulator
from repro.sim.netsim import DiskModel, Network, TransferAborted
from repro.sim.trace import Tracer

TOPO = ClusterTopology(
    nodes_per_rack=2, num_racks=3,
    intra_rack_bandwidth=100.0, cross_rack_bandwidth=100.0,
)
DISK = DiskModel(read_bandwidth=100.0, write_bandwidth=50.0)


def make_network(disk=None):
    sim = Simulator()
    return sim, Network(sim, TOPO, disk)


class TestStartedTransfers:
    def test_flow_is_an_event_that_triggers_when_the_transfer_ends(self):
        sim, network = make_network()
        flow = network.start_transfer(0, 2, 100.0)
        assert not flow.triggered
        sim.run()
        assert flow.processed and flow.value is None
        assert sim.now == 1.0
        stats = network.stats
        assert stats.transfers == stats.cross_rack_transfers == 1

    def test_waiters_see_the_abort(self):
        sim, network = make_network()
        flow = network.start_transfer(0, 2, 1000.0)
        seen = []

        def waiter():
            try:
                yield flow
            except TransferAborted as exc:
                seen.append((exc.endpoint, sim.now))

        def killer():
            yield sim.timeout(3.0)
            network.fail_endpoint(2)

        sim.process(waiter())
        sim.process(killer())
        sim.run()
        assert seen == [(2, 3.0)]
        assert network.links.held_keys == frozenset()

    def test_errors_fail_the_flow_at_the_call_instead_of_raising(self):
        sim, network = make_network()
        flow = network.start_transfer(0, 1, 0.0)  # nothing raised here
        assert flow.triggered and flow.failed
        # Nobody waits on it: the failure surfaces from the run loop, as
        # a crashed process's did.
        with pytest.raises(ValueError, match="size must be positive"):
            sim.run()

    def test_an_endpoint_dying_at_the_start_instant_aborts_it(self):
        sim, network = make_network()
        flow = network.start_transfer(0, 2, 100.0)
        assert network.fail_endpoint(2) == 1  # open at the call: aborted
        seen = []

        def waiter():
            try:
                yield flow
            except TransferAborted as exc:
                seen.append(exc.endpoint)

        sim.process(waiter())
        sim.run()
        assert seen == [2]
        assert network.stats.aborted == 1 and network.stats.transfers == 0

    def test_disk_write_holds_the_disk(self):
        sim, network = make_network(DISK)
        first = network.start_disk_write(0, 100.0)   # 2 s
        second = network.start_disk_write(0, 100.0)  # queued behind it
        sim.run()
        assert first.processed and second.processed
        assert sim.now == 4.0
        assert network.stats.transfers == 0  # disk holds are not transfers

    def test_disk_write_without_disks_fails(self):
        sim, network = make_network()
        network.start_disk_write(0, 10.0)
        with pytest.raises(ValueError, match="disks are not modelled"):
            sim.run()


class TestInflight:
    def test_lists_queued_and_holding_transfers_in_start_order(self):
        sim, network = make_network()
        network.start_transfer(0, 1, 100.0)
        network.start_transfer(0, 2, 100.0)  # queued on node 0's egress
        assert list(network.inflight()) == [(0, 1), (0, 2)]  # open at once
        sim.run(until=0.5)
        assert list(network.inflight()) == [(0, 1), (0, 2)]
        sim.run(until=1.5)
        assert list(network.inflight()) == [(0, 2)]
        sim.run()
        assert list(network.inflight()) == []


class TestTracer:
    def test_records_started_and_inline_transfers(self):
        sim, network = make_network()
        tracer = Tracer.attach(network)

        def inline():
            yield from network.transfer(4, 5, 100.0)

        network.start_transfer(0, 2, 200.0)
        sim.process(inline())
        sim.run()
        records = sorted(tracer.records, key=lambda r: r.src)
        assert [(r.src, r.dst, r.start, r.end, r.cross_rack)
                for r in records] == [(0, 2, 0.0, 2.0, True),
                                      (4, 5, 0.0, 1.0, False)]

    def test_aborted_transfers_are_not_recorded(self):
        sim, network = make_network()
        tracer = Tracer.attach(network)
        network.start_transfer(0, 2, 1000.0).defused = True
        sim.run(until=1.0)
        network.fail_endpoint(2)
        sim.run()
        assert tracer.records == []

    def test_an_unwaited_failure_still_surfaces(self):
        sim, network = make_network()
        Tracer.attach(network)
        network.start_transfer(0, 2, 1000.0)
        sim.run(until=1.0)
        network.fail_endpoint(2)
        with pytest.raises(TransferAborted):
            sim.run()

    def test_detach_stops_recording_started_flows(self):
        sim, network = make_network()
        tracer = Tracer.attach(network)
        tracer.detach()
        network.start_transfer(0, 2, 100.0)
        sim.run()
        assert len(tracer) == 0


class TestInterrupts:
    def test_interrupted_disk_read_withdraws_its_queued_claim(self):
        """A read interrupted while queued for its disk must not take the
        disk later: the write queued behind it gets the disk instead."""
        sim, network = make_network(DISK)
        log = []

        def hold(name, op, delay=0.0):
            yield sim.timeout(delay)
            try:
                yield from op
            except Interrupt:
                log.append((name, "interrupted", sim.now))
                return
            log.append((name, "done", sim.now))

        sim.process(hold("first", network.disk_read(0, 100.0)))  # 0-1 s
        reader = sim.process(hold("queued", network.disk_read(0, 100.0)))
        sim.process(hold("write", network.disk_write(0, 50.0), delay=0.1))

        def interrupter():
            yield sim.timeout(0.5)
            reader.interrupt("give up")

        sim.process(interrupter())
        sim.run()
        assert log == [
            ("queued", "interrupted", 0.5),
            ("first", "done", 1.0),
            ("write", "done", 2.0),
        ]
        assert network.links.held_keys == frozenset()
        assert network.links.queue_length == 0

    def test_interrupted_waiter_of_a_started_flow_leaves_it_running(self):
        sim, network = make_network()
        flow = network.start_transfer(0, 2, 300.0)

        def waiter():
            try:
                yield flow
            except Interrupt:
                return

        process = sim.process(waiter())

        def interrupter():
            yield sim.timeout(1.0)
            process.interrupt()

        sim.process(interrupter())
        sim.run()
        assert flow.processed and not flow.failed
        assert network.stats.transfers == 1 and sim.now == 3.0


def test_call_soon_runs_after_events_already_queued_for_now():
    sim = Simulator()
    order = []
    sim.timeout(0.0).callbacks.append(lambda __: order.append("timeout"))
    sim.call_soon(lambda __: order.append("soon"))
    sim.run()
    assert order == ["timeout", "soon"]
