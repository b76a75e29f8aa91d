#!/usr/bin/env python3
"""Availability analysis: why naive core-rack placement is not enough.

Reproduces the paper's Section III analysis end to end:

1. Figure 3 — the closed-form probability that *preliminary* EAR (core
   rack only, no flow-graph validation) violates rack-level fault
   tolerance, compared against a Monte-Carlo over the real policy;
2. the relocation burden this causes (PlacementMonitor + BlockMover);
3. complete EAR's guarantee — zero violations, verified by exhaustively
   enumerating rack failures on every encoded stripe.

Run:  python examples/availability_analysis.py
"""

import random

from repro.analysis.violation import (
    violation_probability,
    violation_probability_mc,
)
from repro.cluster.block import BlockStore
from repro.cluster.failure import FailureModel
from repro.cluster.topology import ClusterTopology
from repro.core.ear import EncodingAwareReplication
from repro.core.matching import RackMatching, retention_capacity
from repro.core.parity import plan_ear_encoding
from repro.core.preliminary import PreliminaryEAR
from repro.core.relocation import BlockMover, PlacementMonitor
from repro.erasure.codec import CodeParams
from repro.experiments.runner import format_table
from repro.journal.state import Stores


def figure3():
    print("Figure 3: P[preliminary EAR violates rack fault tolerance]\n")
    racks = (16, 20, 24, 28, 32, 36, 40)
    rows = []
    rng = random.Random(1)
    for r in racks:
        row = [r]
        for k in (6, 8, 10, 12):
            row.append(f"{violation_probability(r, k):.3f}")
        rows.append(row)
    print(format_table(["R", "k=6", "k=8", "k=10", "k=12"], rows))
    mc = violation_probability_mc(16, 12, 50_000, rng)
    print(f"\nMonte-Carlo check at (R=16, k=12): {mc:.3f} "
          f"(closed form {violation_probability(16, 12):.3f}; paper: 0.97)\n")


def relocation_burden():
    """Quantify the cross-rack traffic preliminary EAR's violations cost."""
    topology = ClusterTopology(nodes_per_rack=20, num_racks=16)
    code = CodeParams(8, 6)
    rng = random.Random(7)
    policy = PreliminaryEAR(topology, k=code.k, rng=rng)
    store = BlockStore(topology)

    num_stripes = 200
    block_id = 0
    while len(policy.store.sealed_stripes()) < num_stripes:
        block = store.create_block(64 * 2**20)
        assert block.block_id == block_id
        decision = policy.place_block(block_id)
        store.add_replicas(block_id, decision.node_ids)
        block_id += 1

    violating = 0
    for stripe in policy.store.sealed_stripes()[:num_stripes]:
        layout = {bid: store.replica_nodes(bid) for bid in stripe.block_ids}
        matching = RackMatching(topology.rack_of, retention_capacity(1))
        if len(matching.solve(layout)) < len(layout):
            violating += 1
    print(f"Preliminary EAR on R=16, (8,6): {violating}/{num_stripes} stripes "
          f"({100 * violating / num_stripes:.0f}%) need block relocation "
          f"(closed form predicts "
          f"{100 * violation_probability(16, code.k):.0f}%)\n")


def complete_ear_guarantee():
    topology = ClusterTopology(nodes_per_rack=6, num_racks=10)
    code = CodeParams(6, 4)
    rng = random.Random(11)
    policy = EncodingAwareReplication(topology, code, rng=rng)
    store = BlockStore(topology)
    while len(policy.store.sealed_stripes()) < 25:
        block = store.create_block(64 * 2**20)
        decision = policy.place_block(block.block_id)
        store.add_replicas(block.block_id, decision.node_ids)

    monitor = PlacementMonitor(topology, code)
    model = FailureModel(topology)
    checked = 0
    for stripe in policy.store.sealed_stripes()[:25]:
        plan = plan_ear_encoding(topology, store, stripe, code, rng=rng)
        Stores(blocks=store, stripes=policy.store).encode_stripe(
            stripe.stripe_id, plan.parity_nodes, 64 * 2**20,
            plan.retained.items(),
        )
        assert not monitor.is_violating(store, stripe)
        nodes = [store.replica_nodes(b)[0] for b in stripe.all_block_ids()]
        assert model.stripe_tolerates_rack_failures(
            nodes, code.k, code.num_parity
        )
        checked += 1
    print(f"Complete EAR on R=10, (6,4): {checked}/25 encoded stripes "
          f"tolerate every {code.num_parity}-rack failure — zero relocation "
          "needed (exhaustively verified).")


def main():
    figure3()
    relocation_burden()
    complete_ear_guarantee()


if __name__ == "__main__":
    main()
