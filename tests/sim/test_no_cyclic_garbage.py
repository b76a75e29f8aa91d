"""The kernel leaves no cyclic garbage.

Every process, flow, claim and generator a run builds must be freed by
reference counting once the run drains: anything left in a cycle waits for
the cycle collector, whose passes grow with the live heap and showed up as
a tenth of a MapReduce pass's wall time.  The cycles this pins down: a
process and its cached resume callback, a queued claim and its flow's
grant callback, and an abort's traceback through a frame that still names
the aborted flow.
"""

import gc
from types import GeneratorType

from repro.cluster.topology import ClusterTopology
from repro.sim.engine import Interrupt, Process, Simulator
from repro.sim.netsim import DiskModel, Flow, Network, TransferAborted
from repro.sim.resources import MultiRequest

KERNEL_TYPES = (Process, Flow, MultiRequest, GeneratorType)

TOPO = ClusterTopology(
    nodes_per_rack=2, num_racks=3,
    intra_rack_bandwidth=100.0, cross_rack_bandwidth=100.0,
)


def cyclic_kernel_garbage(scenario):
    """Run ``scenario()`` with the cycle collector off, then return the
    kernel objects that only the collector could free."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        scenario()
        gc.collect()
        return [obj for obj in gc.garbage if isinstance(obj, KERNEL_TYPES)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def every_kind_of_hold():
    sim = Simulator()
    network = Network(sim, TOPO, DiskModel(200.0, 200.0))
    log = []

    def inline():
        for index in range(4):
            yield from network.transfer(index % 2, 2 + 2 * (index % 2), 100.0)
        yield from network.disk_read(0, 100.0)
        log.append("inline")

    def started():
        flows = [network.start_transfer(4, dst, 100.0) for dst in (0, 2, 5)]
        flows.append(network.start_disk_write(4, 100.0))
        yield sim.all_of(flows)
        log.append("started")

    def aborted(inline):
        try:
            if inline:
                yield from network.transfer(3, 5, 1000.0)
            else:
                yield network.start_transfer(1, 3, 1000.0)
        except TransferAborted:
            log.append("aborted")

    def interrupted():
        try:
            yield from network.transfer(5, 1, 1000.0)
        except Interrupt:
            log.append("interrupted")

    def chaos(victim):
        yield sim.timeout(2.0)
        network.fail_endpoint(3)
        victim.interrupt()

    for body in (inline(), started(), aborted(True), aborted(False)):
        sim.process(body)
    sim.process(chaos(sim.process(interrupted())))
    sim.run()
    assert sorted(log) == [
        "aborted", "aborted", "inline", "interrupted", "started"
    ]
    assert network.links.held_keys == frozenset()


def test_a_drained_run_leaves_no_cycle_behind():
    assert cyclic_kernel_garbage(every_kind_of_hold) == []
