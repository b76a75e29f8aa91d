"""Experiment configurations mirroring the paper's setups.

Two deployments appear throughout Section V:

* the **testbed** (Section V-A): 13 machines — one master plus 12 slaves,
  each slave its own rack — on 1 Gb/s Ethernet, 64 MB blocks, 2-way
  replication over two racks, 12 map tasks per encoding job, 96 stripes;
* the **large-scale CFS** (Section V-B): 20 racks x 20 nodes, 1 Gb/s
  top-of-rack and core links, 3-way replication over two racks, (14, 10)
  erasure coding, 20 encoding processes x 50 stripes, write and background
  traffic at 1 request/s each.

The dataclasses below default to those parameters; benchmarks shrink the
stripe counts to keep wall-clock reasonable and say so in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.topology import DEFAULT_BLOCK_SIZE, GIGABIT_PER_SECOND_BYTES
from repro.core.policy import ReplicationScheme
from repro.erasure.codec import CodeParams
from repro.sim.netsim import DiskModel


class PolicyName:
    """Placement policies under comparison."""

    RR = "rr"
    EAR = "ear"
    #: Recovery-aware EAR variant: spread encoded stripes one block per
    #: rack, trading encoding traffic for repair parallelism.
    RECOVERY = "recovery"

    ALL = (RR, EAR, RECOVERY)
    #: The two policies the paper compares; every paper-figure driver
    #: iterates these, so a new policy never moves a paper number.
    PAPER = (RR, EAR)


class StrategyName:
    """Transition (replication -> erasure coding) strategies.

    Orthogonal to the placement policy: the policy decides where blocks
    and parity live, the strategy decides how the bytes move during the
    encoding operation.
    """

    #: The paper's Section II-A operation: download ``k`` blocks to one
    #: encoder node, compute, upload parity.
    DOWNLOAD = "download"
    #: RapidRAID-style hop-to-hop pipeline over the replica holders
    #: (:mod:`repro.pipeline`), falling back to ``download`` on failure.
    PIPELINE = "pipeline"

    ALL = (DOWNLOAD, PIPELINE)


@dataclass(frozen=True)
class TestbedConfig:
    """The 13-machine testbed of Section V-A (Experiments A.1-A.3).

    Attributes:
        num_racks: Slave machines, one per rack.
        bandwidth: NIC / switch speed in bytes/second.
        block_size: HDFS block size.
        replicas: Copies per block (the testbed uses 2-way replication
            because each rack has a single DataNode).
        replica_racks: Racks each block's copies span.
        num_stripes: Stripes written and encoded (96 in the paper).
        num_map_tasks: Maps the RaidNode launches per encoding job.
        slots_per_node: TaskTracker map slots.
        disk: Disk model; the testbed is disk-aware (local reads bound the
            EAR encoder), unlike the large-scale simulator.
    """

    # Not a pytest class, despite the Test* name.
    __test__ = False

    num_racks: int = 12
    bandwidth: float = GIGABIT_PER_SECOND_BYTES
    block_size: int = DEFAULT_BLOCK_SIZE
    replicas: int = 2
    replica_racks: int = 2
    num_stripes: int = 96
    num_map_tasks: int = 12
    slots_per_node: int = 4
    disk: Optional[DiskModel] = field(default_factory=DiskModel)

    def scheme(self) -> ReplicationScheme:
        """The replication scheme implied by the replica settings."""
        return ReplicationScheme(self.replicas, self.replica_racks)

    def scaled(self, num_stripes: int) -> "TestbedConfig":
        """A copy with a smaller stripe count (for fast benchmarks)."""
        from dataclasses import replace

        return replace(self, num_stripes=num_stripes)


@dataclass(frozen=True)
class LargeScaleConfig:
    """The simulated 400-node CFS of Section V-B (Experiment B.2).

    Attributes:
        num_racks / nodes_per_rack: Cluster shape (20 x 20).
        bandwidth: Top-of-rack and core link speed, swept by Figure 13(c).
        code: Erasure code, (14, 10) by default; Figures 13(a)/(b) sweep
            ``k`` and ``n - k``.
        replicas / replica_racks: 3-way replication over two racks by
            default; Figure 13(f) sweeps replicas with one rack each.
        ear_c: EAR's per-rack cap; Figure 13(e) derives it from the
            tolerable rack failures.
        ear_target_racks: EAR's R' (None = all racks admissible).
        num_encoding_processes / stripes_per_process: 20 x 50 in the paper.
        write_rate / background_rate: Poisson request rates (requests/s).
        background_cross_fraction: Cross-rack share of background requests.
    """

    num_racks: int = 20
    nodes_per_rack: int = 20
    bandwidth: float = GIGABIT_PER_SECOND_BYTES
    #: Over-subscription ratio of the rack uplinks: the cross-rack link
    #: speed is ``bandwidth / oversubscription``.  1.0 reproduces the
    #: paper's setup; larger values model the over-subscribed cores the
    #: paper's premise rests on ("cross-rack bandwidth ... often
    #: over-subscribed [1, 15]").
    oversubscription: float = 1.0
    code: CodeParams = field(default_factory=lambda: CodeParams(14, 10))
    replicas: int = 3
    replica_racks: int = 2
    ear_c: int = 1
    ear_target_racks: Optional[int] = None
    num_encoding_processes: int = 20
    stripes_per_process: int = 50
    write_rate: float = 1.0
    background_rate: float = 1.0
    background_cross_fraction: float = 0.5
    block_size: int = DEFAULT_BLOCK_SIZE

    def scheme(self) -> ReplicationScheme:
        """The replication scheme implied by the replica settings."""
        return ReplicationScheme(self.replicas, self.replica_racks)

    @property
    def total_stripes(self) -> int:
        """Stripes encoded across all encoding processes."""
        return self.num_encoding_processes * self.stripes_per_process

    @property
    def cross_rack_bandwidth(self) -> float:
        """Effective rack uplink speed after over-subscription."""
        if not self.oversubscription > 0:
            raise ValueError("oversubscription must be positive")
        return self.bandwidth / self.oversubscription

    def scaled(self, stripes_per_process: int) -> "LargeScaleConfig":
        """A copy with fewer stripes per process (for fast benchmarks)."""
        from dataclasses import replace

        return replace(self, stripes_per_process=stripes_per_process)
