"""The chaos layer: fault injection, retries, and the repair pipeline.

Four cooperating pieces turn the simulator's fail-fast stack into one
that degrades gracefully:

* :mod:`repro.faults.retry` — bounded retries with exponential backoff,
  seeded jitter, and straggler kill, for any simulation process;
* :mod:`repro.faults.chaos` — scripted faults (node flaps, rack
  outages, NIC degradation, bit-rot, permanent node and rack loss) as
  simulation processes;
* :mod:`repro.faults.repair` — the prioritized repair queue draining
  damage most-at-risk-stripe first;
* :mod:`repro.faults.scrubber` — periodic checksum verification feeding
  detected corruption into the queue.

:mod:`repro.recovery.storm` wires them all to a cluster; its ``chaos``
scenario (``repro chaos`` on the CLI) drills every piece in one run.
"""

from repro.faults.chaos import (
    CORRUPT_BLOCK,
    DEGRADE_NODE,
    NODE_FLAP,
    NODE_LOSS,
    RACK_LOSS,
    RACK_OUTAGE,
    ChaosEvent,
    ChaosInjector,
    ChaosSchedule,
)
from repro.faults.repair import RepairQueue
from repro.faults.retry import (
    AttemptTimeout,
    RetryExhausted,
    RetryPolicy,
    with_retries,
)
from repro.faults.scrubber import Scrubber

__all__ = [
    "AttemptTimeout",
    "ChaosEvent",
    "ChaosInjector",
    "ChaosSchedule",
    "CORRUPT_BLOCK",
    "DEGRADE_NODE",
    "NODE_FLAP",
    "NODE_LOSS",
    "RACK_LOSS",
    "RACK_OUTAGE",
    "RepairQueue",
    "RetryExhausted",
    "RetryPolicy",
    "Scrubber",
    "with_retries",
]
