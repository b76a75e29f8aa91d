"""Placement core: the paper's primary contribution.

* :mod:`repro.core.matching` — the block/node/rack flow graph of Figure 4:
  whether a replica layout admits a post-encoding placement that satisfies
  rack-level fault tolerance (a matching with at most ``c`` stripe blocks
  per rack), computed by Dinic's phases on the graph's implicit residual
  network (no graph is built), and the per-rack capacity it runs under.
* :mod:`repro.core.policy` — the ``PlacementPolicy`` interface and the
  replication scheme descriptions (HDFS default two-rack layout, one rack
  per replica, ...).
* :mod:`repro.core.random_replication` — random replication (RR), HDFS's
  default policy and the paper's baseline.
* :mod:`repro.core.preliminary` — the preliminary EAR of Section III-A
  (core rack only, no availability validation); exists to reproduce the
  Figure 3 violation analysis.
* :mod:`repro.core.ear` — complete encoding-aware replication (EAR) with
  flow-graph validation, parameter ``c``, and target racks.
* :mod:`repro.core.stripe` — stripe bookkeeping and the pre-encoding store.
* :mod:`repro.core.parity` — parity block placement after encoding.
* :mod:`repro.core.relocation` — PlacementMonitor / BlockMover equivalents.
"""

from repro.core.ear import EncodingAwareReplication
from repro.core.policy import (
    PlacementPolicy,
    ReplicationScheme,
    TWO_RACKS,
    DISTINCT_RACKS,
)
from repro.core.preliminary import PreliminaryEAR
from repro.core.random_replication import RandomReplication
from repro.core.relocation import BlockMover, PlacementMonitor, RelocationPlan
from repro.core.stripe import PreEncodingStore, Stripe, StripeState

__all__ = [
    "BlockMover",
    "DISTINCT_RACKS",
    "EncodingAwareReplication",
    "PlacementMonitor",
    "PlacementPolicy",
    "PreEncodingStore",
    "PreliminaryEAR",
    "RandomReplication",
    "RelocationPlan",
    "ReplicationScheme",
    "Stripe",
    "StripeState",
    "TWO_RACKS",
]
