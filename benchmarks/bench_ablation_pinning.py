"""Ablation: how much of EAR's win is the JobTracker core-rack pinning?

The paper's third HDFS modification forces encoding maps onto core-rack
nodes.  This ablation runs EAR placement but lets the JobTracker schedule
encode maps anywhere (preference only, no restriction): stripes whose map
lands off-rack pay cross-rack downloads again.

Expected: unpinned EAR sits between RR and pinned EAR whenever core racks
are busy; with idle slots the preference alone usually suffices — which is
exactly why the paper needed the hard flag only for loaded clusters.
"""

import random

from repro.cluster.topology import ClusterTopology
from repro.erasure.codec import CodeParams
from repro.experiments.config import TestbedConfig
from repro.experiments.runner import build_cluster, format_table, mean
from repro.experiments.testbed import run_raw_encoding

from .conftest import emit, run_once

CONFIG = TestbedConfig()
CODE = CodeParams(10, 8)
SEEDS = (0, 1, 2)


def run_unpinned(seed):
    """EAR placement, but encoding maps are merely *preferring* the core
    rack while a competing job occupies most slots there."""
    topology = ClusterTopology.testbed(CONFIG.num_racks, CONFIG.bandwidth)
    setup = build_cluster(
        "ear", topology, CODE, CONFIG.scheme(), seed,
        disk=CONFIG.disk, block_size=CONFIG.block_size,
        slots_per_node=1,
    )
    master = setup.network.add_external("master")

    def writes():
        while len(setup.namenode.sealed_stripes()) < CONFIG.num_stripes:
            yield from setup.client.write_block(writer_node=master)

    setup.sim.process(writes())
    setup.sim.run()

    sealed = setup.namenode.sealed_stripes()[: CONFIG.num_stripes]
    setup.encoder.planner.allow_foreign_encoder = True
    job = setup.raidnode.build_encoding_job(
        setup.job_tracker, sealed, CONFIG.num_map_tasks
    )
    # Strip the restriction: preference only.
    for task in job.tasks:
        task.restrict_to_preferred = False
    # Occupy half the cluster's slots with a long-running competing job so
    # preferred nodes are frequently busy.
    from repro.hdfs.mapreduce import MapReduceJob, MapTask

    def hog(node):
        yield setup.sim.timeout(500.0)
        return node

    blockers = MapReduceJob(
        job_id=setup.job_tracker.new_job_id(),
        tasks=[MapTask(task_id=i, work=hog, preferred_nodes=(i,))
               for i in range(0, topology.num_nodes, 2)],
    )
    setup.job_tracker.submit(blockers)
    setup.encode_meter.start(setup.sim.now)
    setup.sim.process(setup.job_tracker.run_job(job))
    setup.sim.run()
    cross = sum(r.cross_rack_downloads for r in setup.encoder.records)
    return setup.encode_meter.throughput_mb_s(), cross


def run_all():
    pinned = mean(
        run_raw_encoding("ear", CODE, CONFIG, seed).throughput_mb_s
        for seed in SEEDS
    )
    rr = mean(
        run_raw_encoding("rr", CODE, CONFIG, seed).throughput_mb_s
        for seed in SEEDS
    )
    unpinned_runs = [run_unpinned(seed) for seed in SEEDS]
    unpinned = mean(t for t, __ in unpinned_runs)
    cross = mean(c for __, c in unpinned_runs)
    return rr, unpinned, pinned, cross


def test_ablation_core_rack_pinning(benchmark):
    rr, unpinned, pinned, unpinned_cross = run_once(benchmark, run_all)
    emit(
        "Ablation: JobTracker core-rack pinning (96 stripes, (10,8); the "
        "unpinned cluster is half-occupied by a competing job)",
        format_table(
            ["variant", "encode MB/s", "cross-rack downloads/run"],
            [
                ["RR", f"{rr:.0f}", "-"],
                ["EAR, preference only", f"{unpinned:.0f}", f"{unpinned_cross:.0f}"],
                ["EAR, pinned (paper)", f"{pinned:.0f}", "0"],
            ],
        ),
    )
    assert pinned > rr
    # Unpinned EAR loses part of the benefit under slot contention: some
    # maps land off the core rack and pay cross-rack downloads.
    assert unpinned_cross > 0
