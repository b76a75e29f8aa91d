"""NaN is rejected wherever a float range is checked.

NaN fails every comparison, so a guard written ``if x <= 0: raise`` lets
it through; ``tests/test_determinism.py`` (NAN001) keeps those guards in
the ``not x > 0`` form.  One case per module whose guards were rewritten
shows the NaN now raises.
"""

import math
import random

import pytest

from repro.analysis.iterations import theorem1_bound
from repro.cluster.block import BlockStore
from repro.cluster.topology import ClusterTopology
from repro.experiments.config import LargeScaleConfig
from repro.hdfs.encoder import StripeEncoder
from repro.hdfs.files import FileNamespace, write_file
from repro.sim.engine import Simulator
from repro.sim.metrics import FaultMetrics, ResponseTimeStats, ThroughputMeter
from repro.sim.netsim import Network
from repro.sim.sources import exponential_sizes, fixed_sizes, poisson_arrivals
from repro.workloads.background import BackgroundTraffic
from repro.workloads.reads import ReadStream
from repro.workloads.swim import SwimWorkload, run_swim_job
from repro.workloads.writes import WriteStream

NAN = math.nan
TOPO = ClusterTopology(nodes_per_rack=2, num_racks=2,
                       intra_rack_bandwidth=100.0, cross_rack_bandwidth=100.0)


def network():
    return Network(Simulator(), TOPO)


CASES = {
    "analysis.iterations": lambda: theorem1_bound(1, NAN),
    "cluster.block": lambda: BlockStore(TOPO).create_block(NAN),
    "cluster.topology": lambda: ClusterTopology(
        nodes_per_rack=2, num_racks=2, cross_rack_bandwidth=NAN),
    "experiments.config": lambda: LargeScaleConfig(
        oversubscription=NAN).cross_rack_bandwidth,
    "hdfs.encoder": lambda: StripeEncoder(
        None, None, None, None, compute_bandwidth=NAN),
    "hdfs.files": lambda: next(write_file(None, FileNamespace(), "f", NAN)),
    "sim.metrics-latency": lambda: ResponseTimeStats().record(0.0, NAN),
    "sim.metrics-size": lambda: ThroughputMeter().record(0.0, NAN),
    "sim.metrics-duration": lambda: FaultMetrics().record_repair(NAN),
    "sim.netsim": lambda: next(network().transfer(0, 1, NAN)),
    "sim.sources-rate": lambda: next(poisson_arrivals(random.Random(0), NAN)),
    "sim.sources-mean": lambda: next(
        exponential_sizes(random.Random(0), mean=NAN)),
    "sim.sources-minimum": lambda: next(
        exponential_sizes(random.Random(0), mean=1.0, minimum=NAN)),
    "sim.sources-size": lambda: next(fixed_sizes(NAN)),
    "workloads.background": lambda: BackgroundTraffic(
        Simulator(), network(), rate=NAN),
    "workloads.reads": lambda: ReadStream(Simulator(), None, rate=NAN),
    "workloads.swim": lambda: SwimWorkload(mean_interarrival=NAN),
    "workloads.swim-compute": lambda: next(run_swim_job(
        None, None, None, None, None, compute_rate=NAN)),
    "workloads.writes": lambda: WriteStream(Simulator(), None, rate=NAN),
}


@pytest.mark.parametrize("make", CASES.values(), ids=list(CASES))
def test_nan_is_rejected(make):
    with pytest.raises(ValueError):
        make()
