#!/usr/bin/env python3
"""Quickstart: place, encode, break, and repair a stripe with EAR.

Walks the library's core loop on a 20-rack cluster:

1. place 3-way-replicated blocks with encoding-aware replication (EAR);
2. when a stripe seals, plan its encoding — zero cross-rack downloads;
3. compute *real* Reed-Solomon parity over the blocks' bytes;
4. commit the encode: parity placed, redundant replicas deleted
   (3x -> 1.4x storage overhead);
5. fail a rack and reconstruct the lost block bit-exactly.

Run:  python examples/quickstart.py
"""

import random

from repro import (
    BlockStore,
    ClusterTopology,
    CodeParams,
    EncodingAwareReplication,
    make_codec,
    plan_ear_encoding,
)
from repro.journal.state import Stores

BLOCK_SIZE = 4096  # small blocks so the demo encodes real bytes quickly


def main():
    rng = random.Random(2015)
    topology = ClusterTopology.large_scale()  # 20 racks x 20 nodes
    code = CodeParams(14, 10)  # Facebook's (14, 10): tolerates 4 failures
    print(f"cluster: {topology}")
    print(f"code: {code}, storage overhead {code.storage_overhead:.2f}x\n")

    # -- 1. write blocks through EAR ---------------------------------------
    ear = EncodingAwareReplication(topology, code, rng=rng)
    store = BlockStore(topology)
    payloads = {}
    while not ear.store.sealed_stripes():
        payload = bytes(rng.randrange(256) for _ in range(BLOCK_SIZE))
        block = store.create_block(BLOCK_SIZE)
        decision = ear.place_block(block.block_id)
        store.add_replicas(block.block_id, decision.node_ids)
        payloads[block.block_id] = payload
        if block.block_id < 5:
            print(
                f"  block {block.block_id}: replicas on "
                f"{[topology.node(n).name for n in decision.node_ids]} "
                f"(core rack {decision.core_rack}, {decision.attempts} draw(s))"
            )
        elif block.block_id == 5:
            print("  ... (writing until some core rack accumulates k blocks)")

    stripe = ear.store.sealed_stripes()[0]
    print(f"\nstripe {stripe.stripe_id} sealed with k={code.k} blocks; "
          f"core rack = {stripe.core_rack}")

    # -- 2. plan the encoding ----------------------------------------------
    plan = plan_ear_encoding(topology, store, stripe, code, rng=rng)
    print(f"encoder node: {topology.node(plan.encoder_node).name}")
    print(f"cross-rack downloads: {plan.cross_rack_downloads} (EAR guarantee)")
    print(f"cross-rack parity uploads: {plan.cross_rack_uploads}")

    # -- 3. compute real parity ---------------------------------------------
    codec = make_codec(code.n, code.k, "reed-solomon")
    data = [payloads[b] for b in stripe.block_ids]
    parity = codec.encode(data)

    # -- 4. commit the encode: parity in, redundant replicas out --------------
    parity_blocks = Stores(blocks=store, stripes=ear.store).encode_stripe(
        stripe.stripe_id, plan.parity_nodes, BLOCK_SIZE, plan.retained.items()
    )
    parity_payloads = {
        block.block_id: payload for block, payload in zip(parity_blocks, parity)
    }
    copies = sum(
        len(store.replica_nodes(b)) for b in stripe.all_block_ids()
    )
    print(f"\nafter encoding: {copies} block copies for {code.k} data blocks "
          f"({copies / code.k:.1f}x overhead, was 3.0x)")

    # -- 5. fail a rack, reconstruct ------------------------------------------
    all_ids = stripe.all_block_ids()
    victim_rack = topology.rack_of(store.replica_nodes(all_ids[0])[0])
    lost = [
        (i, b) for i, b in enumerate(all_ids)
        if topology.rack_of(store.replica_nodes(b)[0]) == victim_rack
    ]
    print(f"\nfailing rack {victim_rack}: loses block(s) "
          f"{[b for _, b in lost]}")
    survivors = {}
    everything = {**payloads, **parity_payloads}
    for i, b in enumerate(all_ids):
        if topology.rack_of(store.replica_nodes(b)[0]) != victim_rack:
            survivors[i] = everything[b]
    for index, block_id in lost:
        rebuilt = codec.reconstruct(index, survivors)
        assert rebuilt == everything[block_id]
        print(f"  block {block_id} reconstructed bit-exactly "
              f"from {code.k} surviving blocks")
    print("\nquickstart complete.")


if __name__ == "__main__":
    main()
