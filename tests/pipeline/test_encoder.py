"""End-to-end pipelined encoding through the full simulated stack.

``build_cluster(strategy="pipeline")`` must behave exactly like the
download stack at the commit layer — journalled parity, retained
replicas, RaidNode/MapReduce integration — while moving bytes along the
pipeline and committing parity that the whole-stripe codec verifies.
"""

import random

import pytest

from repro.cluster.topology import ClusterTopology
from repro.core.policy import ReplicationScheme
from repro.core.stripe import StripeState
from repro.erasure.codec import CodeParams
from repro.experiments.runner import build_cluster, populate_until_sealed

CODE = CodeParams(6, 4)


def make_setup(policy="ear", seed=0, num_stripes=4, **kwargs):
    topology = ClusterTopology(
        nodes_per_rack=4, num_racks=8,
        intra_rack_bandwidth=1e6, cross_rack_bandwidth=1e6,
    )
    setup = build_cluster(
        policy, topology, CODE, ReplicationScheme(3, 2), seed=seed,
        block_size=256_000, ear_c=2, strategy="pipeline", **kwargs,
    )
    populate_until_sealed(setup, num_stripes)
    return setup


def encode_all_stripes(setup, node=None):
    stripes = setup.namenode.sealed_stripes()
    if node is None:
        node = sorted(setup.topology.node_ids())[0]

    def run():
        yield from setup.encoder.encode_stripes(stripes, node)

    setup.sim.process(run())
    setup.sim.run(until=100_000)
    return stripes


class TestEndToEnd:
    @pytest.mark.parametrize("policy", ["rr", "ear"])
    def test_every_stripe_encodes_with_verified_parity(self, policy):
        setup = make_setup(policy)
        stripes = encode_all_stripes(setup)
        encoder = setup.encoder
        assert len(encoder.records) == len(stripes)
        assert len(encoder.pipeline_records) == len(stripes)
        assert not any(r.fallback for r in encoder.pipeline_records)
        for stripe in stripes:
            assert stripe.state == StripeState.ENCODED
            assert len(stripe.parity_block_ids) == CODE.num_parity
            # The data plane's oracle: committed parity == codec.encode.
            assert encoder.data_plane.verify_stripe(stripe)

    def test_ear_pipeline_never_crosses_core_links_before_delivery(self):
        setup = make_setup("ear")
        encode_all_stripes(setup)
        summary = setup.encoder.metrics.summary()
        assert summary["stripes_pipelined"] == 4
        assert summary["cross_rack_hop_bytes"] == 0.0
        assert summary["hop_bytes"] > 0.0

    def test_gf_work_billed_to_hop_nodes(self):
        setup = make_setup("ear")
        encode_all_stripes(setup)
        metrics = setup.encoder.metrics
        billed_nodes = sorted(metrics.gf_by_node)
        assert billed_nodes, "some hop must have done GF work"
        hop_nodes = {
            node
            for record in setup.encoder.pipeline_records
            for node in record.hop_nodes
        }
        assert set(billed_nodes) <= hop_nodes
        total = sum(
            ops.get("gf.kernel_calls", 0)
            for ops in metrics.gf_by_node.values()
        )
        assert total > 0

    def test_deterministic_across_rebuilds(self):
        def fingerprint():
            setup = make_setup("ear", seed=11)
            encode_all_stripes(setup)
            return [
                (r.stripe_id, r.tail_node, r.hop_nodes, r.start_time,
                 r.finish_time)
                for r in setup.encoder.pipeline_records
            ]

        assert fingerprint() == fingerprint()

    def test_raidnode_runs_the_pipelined_encoder(self):
        setup = make_setup("ear", seed=2, num_stripes=4)
        stripes = setup.namenode.sealed_stripes()
        setup.sim.process(setup.raidnode.run_encoding(
            setup.job_tracker, stripes, num_map_tasks=2
        ))
        setup.sim.run(until=100_000)
        assert all(s.state == StripeState.ENCODED for s in stripes)
        assert len(setup.encoder.pipeline_records) == len(stripes)
        for stripe in stripes:
            assert setup.encoder.data_plane.verify_stripe(stripe)

    def test_retained_replicas_follow_the_commit_plan(self):
        setup = make_setup("ear", seed=4)
        stripes = encode_all_stripes(setup)
        store = setup.namenode.block_store
        for stripe in stripes:
            for block_id in stripe.block_ids:
                assert len(store.replica_nodes(block_id)) == 1


class TestConfigErrors:
    def test_unknown_strategy_rejected(self):
        topology = ClusterTopology(
            nodes_per_rack=4, num_racks=8,
            intra_rack_bandwidth=1e6, cross_rack_bandwidth=1e6,
        )
        with pytest.raises(ValueError, match="unknown strategy"):
            build_cluster(
                "ear", topology, CODE, ReplicationScheme(3, 2), seed=0,
                strategy="teleport",
            )

    def test_chunk_count_validated(self):
        from repro.pipeline.encoder import PipelinedEncoder

        setup = make_setup("ear")
        with pytest.raises(ValueError, match="chunk_count"):
            PipelinedEncoder(
                setup.sim, setup.network, setup.namenode,
                setup.namenode.make_planner(CODE, rng=random.Random(0)),
                code=CODE, chunk_count=0,
            )

    def test_compute_bandwidth_validated_by_the_inherited_constructor(self):
        from repro.pipeline.encoder import PipelinedEncoder

        setup = make_setup("ear")
        with pytest.raises(ValueError, match="compute bandwidth"):
            PipelinedEncoder(
                setup.sim, setup.network, setup.namenode,
                setup.namenode.make_planner(CODE, rng=random.Random(0)),
                code=CODE, compute_bandwidth=0,
            )
