"""The recovery storm engine: degraded reads, recovery-aware placement,
and correlated-failure drills (measured by
:class:`~repro.sim.metrics.FaultMetrics`).

Layers (each importable on its own):

* :mod:`repro.recovery.placement` — :class:`RecoveryAwareReplication`,
  the spread-for-repair EAR variant (policy name ``"recovery"``).
* :mod:`repro.recovery.degraded` — :class:`DegradedReadPath`, the client
  read ladder (normal → inline decode → repair-queue escalation).
* :mod:`repro.recovery.storm` — the fault-scenario harness: the one
  cluster + recovery-stack assembly, drain loop and fingerprinted
  report, and the five seeded scenarios built on them (four storms and
  the chaos drill).
* :mod:`repro.recovery.headtohead` — the storm trial and its policy ×
  code grid over :func:`repro.parallel.run_grid`.
"""

from repro.recovery.degraded import (
    DEGRADED,
    ESCALATED,
    NORMAL,
    DegradedReadPath,
    DegradedReadResult,
)
from repro.recovery.headtohead import (
    DEFAULT_CODES,
    DEFAULT_POLICIES,
    head_to_head,
    head_to_head_rows,
    storm_trial,
)
from repro.recovery.placement import RecoveryAwareReplication
from repro.recovery.storm import (
    SCENARIO_RUNNERS,
    StormCluster,
    StormReport,
    build_storm_cluster,
    rack_loss,
    rolling_failures,
    run_storm,
    scrub_storm,
    single_node_loss,
    storm_fingerprint,
)

__all__ = [
    "DEGRADED",
    "ESCALATED",
    "NORMAL",
    "DEFAULT_CODES",
    "DEFAULT_POLICIES",
    "DegradedReadPath",
    "DegradedReadResult",
    "RecoveryAwareReplication",
    "SCENARIO_RUNNERS",
    "StormCluster",
    "StormReport",
    "build_storm_cluster",
    "head_to_head",
    "head_to_head_rows",
    "rack_loss",
    "rolling_failures",
    "run_storm",
    "scrub_storm",
    "single_node_loss",
    "storm_fingerprint",
    "storm_trial",
]
