"""Micro-benchmarks of the library's hot primitives.

Unlike the figure benchmarks (which run a scenario once and print the
paper's table), these exercise pytest-benchmark properly — repeated timed
rounds — so performance regressions in the core primitives show up:

* Reed-Solomon encoding throughput (bytes through the GF(2^8) kernels);
* EAR placement rate (flow-graph validation per block);
* DES engine event throughput;
* the retention matching of a stripe-sized layout.
"""

import random

import pytest

from repro.cluster.topology import ClusterTopology
from repro.core.ear import EncodingAwareReplication
from repro.core.flowgraph import StripeFlowGraph
from repro.erasure.codec import CodeParams, make_codec
from repro.sim.engine import Simulator


def test_micro_rs_encode_throughput(benchmark):
    """Encode a (14,10) stripe of 256 KiB blocks."""
    codec = make_codec(14, 10)
    rng = random.Random(1)
    data = [
        bytes(rng.randrange(256) for __ in range(1024)) * 256
        for __ in range(10)
    ]
    parity = benchmark(codec.encode, data)
    assert len(parity) == 4


def test_micro_ear_placement_rate(benchmark):
    """Place a full (14,10) stripe's worth of blocks with validation."""
    topo = ClusterTopology.large_scale()
    code = CodeParams(14, 10)
    counter = [0]

    def place_stripe():
        ear = EncodingAwareReplication(
            topo, code, rng=random.Random(counter[0])
        )
        counter[0] += 1
        for block_id in range(code.k):
            ear.place_block(block_id, writer_node=0)
        return ear

    ear = benchmark(place_stripe)
    assert len(ear.store.sealed_stripes()) == 1


def test_micro_des_event_throughput(benchmark):
    """Drive 10,000 timeout events through the kernel."""

    def run_events():
        sim = Simulator()

        def ticker():
            for __ in range(10_000):
                yield sim.timeout(1.0)

        sim.process(ticker())
        sim.run()
        return sim.now

    now = benchmark(run_events)
    assert now == 10_000.0


def test_micro_maxflow_stripe_graph(benchmark):
    """Feasibility check of a k=10 layout on the 20x20 cluster."""
    topo = ClusterTopology.large_scale()
    rng = random.Random(3)
    graph = StripeFlowGraph(topo, c=1)
    layout = {}
    for block in range(10):
        core = rng.choice(topo.nodes_in_rack(0))
        other_rack = rng.randrange(1, 20)
        spare = rng.sample(list(topo.nodes_in_rack(other_rack)), 2)
        layout[block] = (core, *spare)

    size = benchmark(graph.max_matching_size, layout)
    assert 0 < size <= 10
