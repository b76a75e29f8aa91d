"""Experiment drivers: one entry point per table/figure in the paper.

See DESIGN.md for the experiment index.  Every driver is deterministic
given its seed(s) and returns plain result objects.
:mod:`repro.experiments.artefacts` holds one row per paper artefact (the
``repro`` command, the driver call, the bench scale, the printed table
and the shape checks), which ``repro.cli`` and
``benchmarks/bench_paper.py`` both read; it is not imported here, so
importing a driver does not load every other driver.

* :mod:`repro.experiments.testbed` — Experiments A.1-A.3 (Figures 8-10) on
  the 12-rack testbed model (disks enabled).
* :mod:`repro.experiments.largescale` — Experiment B.2 (Figure 13) on the
  20x20 cluster (links only, like the paper's CSIM simulator).
* :mod:`repro.experiments.validation` — Experiment B.1 (Figure 12,
  Table I): simulator validation against analytic transfer times.
* :mod:`repro.experiments.loadbalance` — Experiments C.1-C.2
  (Figures 14-15).
"""

from repro.experiments.config import (
    LargeScaleConfig,
    PolicyName,
    TestbedConfig,
)
from repro.experiments.runner import ClusterSetup, build_cluster

__all__ = [
    "ClusterSetup",
    "LargeScaleConfig",
    "PolicyName",
    "TestbedConfig",
    "build_cluster",
]
