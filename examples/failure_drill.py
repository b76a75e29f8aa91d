#!/usr/bin/env python3
"""Failure drill: lose a rack mid-workload and watch the system heal.

A 20x20 cluster encodes EAR-placed stripes to (14, 10) while serving
writes.  At t=120 s a whole rack fails: a ``RACK_LOSS`` event on the
chaos schedule takes its nodes down and hands every block they held to
the repair queue, which re-replicates the replicated blocks, rebuilds
every encoded block from its stripe and relocates whatever it had to
place against the rack cap — all of it traffic through the simulated
network.  The report comes from the queue's own state, and a tracer
shows what the repair cost the core.

Run:  python examples/failure_drill.py [seed]

Every random choice derives from the single seed (default 7), so a run is
reproducible end to end: same seed, same repair traffic, same report.
"""

import random
import sys

from repro.cluster.topology import ClusterTopology
from repro.core.policy import ReplicationScheme
from repro.core.relocation import BlockMover, PlacementMonitor
from repro.core.stripe import StripeState
from repro.erasure.codec import CodeParams
from repro.experiments.runner import build_cluster, populate_until_sealed
from repro.faults.chaos import (
    RACK_LOSS, ChaosEvent, ChaosInjector, ChaosSchedule,
)
from repro.faults.repair import DECODED, REREPLICATED, RepairQueue
from repro.faults.retry import RetryExhausted, RetryPolicy
from repro.sim.metrics import UNAVAILABLE
from repro.sim.trace import Tracer
from repro.workloads.writes import WriteStream


FAIL_AT = 120.0
#: Foreground writes stop this long before the failure so the last ones
#: in flight land first (stopping at the failure instant leaves some
#: pipelined into the dying rack).
QUIESCE = 10.0
#: Encodes and repairs that lose an endpoint to the failure back off and
#: re-plan against the surviving nodes.
RETRY = RetryPolicy(max_attempts=8, base_delay=1.0, max_delay=30.0)


def main(seed: int = 7):
    master = random.Random(seed)
    repair_seed = master.randrange(2**32)
    writes_seed = master.randrange(2**32)
    mover_seed = master.randrange(2**32)

    code = CodeParams(14, 10)
    topology = ClusterTopology.large_scale()
    setup = build_cluster(
        "ear", topology, code, ReplicationScheme(3, 2), seed=seed,
        retry=RETRY,
    )
    populate_until_sealed(setup, 30)
    stripes = setup.namenode.sealed_stripes()[:30]
    print(f"cluster: {topology}; encoding {len(stripes)} stripes of {code} "
          f"(seed {seed})\n")

    repair_queue = RepairQueue(
        setup.sim, setup.network, setup.namenode, setup.raidnode,
        rng=random.Random(repair_seed), retry=RETRY, concurrency=4,
        mover=BlockMover(topology, code, rng=random.Random(mover_seed)),
    )
    writes = WriteStream(
        setup.sim, setup.client, rate=0.5, rng=random.Random(writes_seed)
    )
    tracer = Tracer.attach(setup.network)

    stranded = []

    def encode_all():
        for stripe in stripes:
            try:
                yield from setup.encoder.encode_stripe(stripe)
            except RetryExhausted:
                # EAR pins a stripe's parity to its core rack; with that
                # rack dead the stripe stays replicated.
                stranded.append(stripe)

    victim_rack = 5
    setup.sim.process(encode_all())
    # The client write path does not steer around dead DataNodes: a write
    # pipelined into the dead rack would abort.
    setup.sim.process(writes.run(duration=FAIL_AT - QUIESCE))
    ChaosInjector(
        setup.sim, setup.network,
        ChaosSchedule([ChaosEvent(FAIL_AT, RACK_LOSS, victim_rack)]),
        repair_queue=repair_queue,
    ).start()
    setup.sim.run()

    # Only the rack loss fed the queue so far: one unavailability window
    # per lost block, closed when its repair finished.
    windows = repair_queue.metrics.windows[UNAVAILABLE]
    repair_time = max((w.end for w in windows), default=FAIL_AT) - FAIL_AT
    print(f"rack {victim_rack} failed at t={FAIL_AT:.0f} s:")
    print(f"  blocks lost:           {len(windows)}")
    print(f"  re-replicated copies:  {repair_queue.outcomes[REREPLICATED]}")
    print(f"  erasure-decoded:       {repair_queue.outcomes[DECODED]}")
    print(f"  unrecoverable:         {len(repair_queue.unrecoverable)}")
    print(f"  repair took:           {repair_time:.1f} s\n")

    repair_window = tracer.between(FAIL_AT, FAIL_AT + repair_time)
    repair_bytes = sum(r.size for r in repair_window if r.cross_rack)
    print(f"cross-rack traffic during the repair window: "
          f"{repair_bytes / 2**30:.2f} GiB over {len(repair_window)} transfers")
    print(f"stripes encoded: {len(stripes) - len(stranded)}/{len(stripes)} "
          f"({len(stranded)} pinned to the dead rack stay replicated)\n")

    # Post-mortem: stripes encoded *during* the failure may have kept a
    # replica that breaks the rack cap — what the periodic PlacementMonitor
    # scan exists for.  Its findings go to the repair queue, whose mover
    # relocates them with real traffic; a move that picked a dead target
    # is retried on the next scan.
    store = setup.namenode.block_store
    monitor = PlacementMonitor(topology, code)
    encoded = [s for s in stripes if s.state == StripeState.ENCODED]
    for __ in range(4):
        violating = monitor.scan(store, encoded)
        if not violating:
            break
        for stripe in violating:
            repair_queue.request_relocation(stripe)
        setup.sim.run()
    remaining = monitor.scan(store, encoded)
    print(f"relocations requested / served by the repair queue: "
          f"{len(repair_queue.relocation_requests)} / "
          f"{repair_queue.relocations_done}")
    print(f"stripes violating rack fault tolerance after the drill: "
          f"{len(remaining)} (must be 0)")
    assert not remaining
    assert not repair_queue.unrecoverable
    assert repair_queue.pending_count == 0
    assert len(encoded) + len(stranded) == len(stripes)
    for stripe in stranded:
        for block_id in stripe.block_ids:
            assert len(store.replica_nodes(block_id)) == 3
    print("\nfailure drill complete: no data lost, fault tolerance restored.")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 7)
