"""Discrete-event simulation substrate (a CSIM-20 replacement).

The paper evaluates EAR at scale with a C++ CSIM-based simulator
(Section V-B, Figure 11).  This package is a from-scratch, generator-based
discrete-event kernel plus the network/disk resource models that simulator
needs:

* :mod:`repro.sim.engine` — event queue, processes, timeouts, conditions;
  every event is a plain, never-reused object and ``Simulator.run`` is the
  one place events are processed, in ``(time, seq)`` order.
* :mod:`repro.sim.resources` — the multi-resource arbiter used to hold
  several links for the duration of a transfer.
* :mod:`repro.sim.netsim` — the Topology module: node NICs, rack up/down
  links, optional per-node disks; transfers hold every involved link for
  ``size / bottleneck_bandwidth`` seconds, exactly as the paper describes.
* :mod:`repro.sim.sources` — seeded Poisson/exponential arrival processes.
* :mod:`repro.sim.metrics` — response-time and throughput collectors, and
  :class:`~repro.sim.metrics.FaultMetrics`, the fault path's one collector.
"""

from repro.sim.engine import Interrupt, Process, SimulationError, Simulator
from repro.sim.metrics import (
    FaultMetrics,
    ResponseTimeStats,
    ThroughputMeter,
    TimeSeries,
)
from repro.sim.netsim import DiskModel, Network, TransferStats
from repro.sim.resources import MultiResource
from repro.sim.sources import exponential_sizes, poisson_arrivals
from repro.sim.trace import Tracer, TransferTrace

__all__ = [
    "DiskModel",
    "FaultMetrics",
    "Interrupt",
    "MultiResource",
    "Network",
    "Process",
    "ResponseTimeStats",
    "SimulationError",
    "Simulator",
    "ThroughputMeter",
    "TimeSeries",
    "Tracer",
    "TransferStats",
    "TransferTrace",
    "exponential_sizes",
    "poisson_arrivals",
]
