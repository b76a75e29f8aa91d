"""Chaos battery: the abort → retry → re-plan → fallback ladder.

The contract these tests pin: the pipeline **never commits wrong or
partial parity**.  A mid-flight failure kills the attempt before any
commit; a successful retry routes around the dead node and commits
byte-identical parity; an exhausted retry falls back to
download-and-encode, which also commits byte-identical parity.
"""

import random

from repro.cluster.topology import ClusterTopology
from repro.core.policy import ReplicationScheme
from repro.core.stripe import StripeState
from repro.erasure.codec import CodeParams
from repro.erasure.stream import StreamingDataPlane
from repro.experiments.runner import build_cluster, populate_until_sealed
from repro.faults.retry import RetryPolicy
from repro.hdfs.encoder import StripeEncoder
from repro.sim.netsim import TransferAborted

CODE = CodeParams(6, 4)

RETRY = RetryPolicy(
    max_attempts=6, base_delay=0.5, multiplier=2.0, max_delay=8.0,
    jitter=0.0,
)


def make_setup(policy="ear", seed=0, num_stripes=2, retry=RETRY,
               strategy="pipeline"):
    topology = ClusterTopology(
        nodes_per_rack=4, num_racks=8,
        intra_rack_bandwidth=1e6, cross_rack_bandwidth=1e6,
    )
    setup = build_cluster(
        policy, topology, CODE, ReplicationScheme(3, 2), seed=seed,
        block_size=256_000, ear_c=2, strategy=strategy, retry=retry,
    )
    populate_until_sealed(setup, num_stripes)
    return setup


def drive(setup, stripes, horizon=100_000, node=None):
    # node=None mirrors what matters in production: the pipeline routes
    # by replicas, and a fall-back picks its own eligible encoder (the
    # real JobTracker pins maps to core-rack nodes).
    failures = []

    def run():
        try:
            yield from setup.encoder.encode_stripes(stripes, node)
        except Exception as exc:  # fail-fast mode surfaces here
            failures.append(exc)

    setup.sim.process(run())
    setup.sim.run(until=horizon)
    return failures


class TestMidFlightFailure:
    def test_transient_hop_failure_retries_to_correct_parity(self):
        setup = make_setup(seed=0)
        stripes = setup.namenode.sealed_stripes()
        plan = setup.encoder._plan(stripes[0])
        victim = plan.hops[0].node

        def chaos():
            # Down across the first attempt, back before retries give up.
            yield setup.sim.timeout(0.05)
            setup.network.fail_endpoint(victim)
            yield setup.sim.timeout(3.0)
            setup.network.restore_endpoint(victim)

        setup.sim.process(chaos())
        failures = drive(setup, stripes)
        assert not failures
        for stripe in stripes:
            assert stripe.state == StripeState.ENCODED
            assert setup.encoder.data_plane.verify_stripe(stripe)
        # The cluster's fault collector saw the aborted attempt.
        assert setup.metrics.counts["aborts"] >= 1
        assert setup.metrics.counts["retries"] >= 1

    def test_permanent_hop_failure_replans_around_the_node(self):
        setup = make_setup(seed=0)
        stripes = setup.namenode.sealed_stripes()
        plan = setup.encoder._plan(stripes[0])
        victim = plan.hops[0].node

        def chaos():
            yield setup.sim.timeout(0.05)
            setup.network.fail_endpoint(victim)

        setup.sim.process(chaos())
        failures = drive(setup, stripes)
        assert not failures
        summary = setup.encoder.metrics.summary()
        assert summary["replans"] >= 1
        for stripe in stripes:
            assert stripe.state == StripeState.ENCODED
            assert setup.encoder.data_plane.verify_stripe(stripe)
        # The re-planned routes avoid the dead node entirely.
        for record in setup.encoder.pipeline_records:
            if record.start_time > 0.05 and not record.fallback:
                assert victim not in record.hop_nodes

    def test_failfast_mode_commits_nothing_on_abort(self):
        setup = make_setup(seed=0, retry=None)
        stripes = setup.namenode.sealed_stripes()
        plan = setup.encoder._plan(stripes[0])
        victim = plan.hops[0].node
        store = setup.namenode.block_store
        blocks_before = sorted(b.block_id for b in store.blocks())

        def chaos():
            yield setup.sim.timeout(0.05)
            setup.network.fail_endpoint(victim)

        setup.sim.process(chaos())
        failures = drive(setup, stripes)
        assert len(failures) == 1
        assert isinstance(failures[0], TransferAborted)
        # Nothing committed: stripe still sealed, no parity minted, no
        # parity payloads in the data plane.
        assert stripes[0].state == StripeState.SEALED
        assert stripes[0].parity_block_ids == []
        assert sorted(b.block_id for b in store.blocks()) == blocks_before
        assert setup.encoder.data_plane.payloads == {}
        assert setup.encoder.records == []
        # One attempt: no re-plan, no fallback.
        summary = setup.encoder.metrics.summary()
        assert summary["replans"] == 0 and summary["stripes_fallback"] == 0

    def test_failfast_mode_still_plans_against_liveness(self):
        # retry=None is one attempt, not a liveness-blind one: a hop node
        # that is already down is routed around instead of starting a
        # doomed transfer.
        setup = make_setup(seed=0, retry=None)
        stripes = setup.namenode.sealed_stripes()
        victim = setup.encoder._plan(stripes[0]).hops[0].node
        setup.network.fail_endpoint(victim)
        failures = drive(setup, stripes[:1])
        assert not failures
        assert stripes[0].state == StripeState.ENCODED
        assert setup.encoder.data_plane.verify_stripe(stripes[0])
        (record,) = setup.encoder.pipeline_records
        assert victim not in record.hop_nodes and not record.fallback
        assert setup.network.stats.aborted == 0


class TestFallback:
    def test_exhausted_retries_fall_back_to_download_encode(self, monkeypatch):
        setup = make_setup(seed=1)
        stripes = setup.namenode.sealed_stripes()

        def doomed(stripe, state):
            raise TransferAborted(0, 0, 0)
            yield  # pragma: no cover - makes this a generator

        monkeypatch.setattr(setup.encoder, "_chain_attempt", doomed)
        failures = drive(setup, stripes)
        assert not failures
        summary = setup.encoder.metrics.summary()
        assert summary["stripes_fallback"] == len(stripes)
        assert summary["stripes_pipelined"] == 0
        assert all(r.fallback for r in setup.encoder.pipeline_records)
        for stripe in stripes:
            assert stripe.state == StripeState.ENCODED
            # Fallback parity passes the same byte-identity oracle.
            assert setup.encoder.data_plane.verify_stripe(stripe)
        # The records list sees the fallback stripes exactly once.
        assert sorted(r.stripe_id for r in setup.encoder.records) == sorted(
            s.stripe_id for s in stripes
        )

    def test_fallback_is_the_plain_download_encoder(self, monkeypatch):
        # A forced-fallback stripe must be indistinguishable from the same
        # stripe encoded by a plain StripeEncoder (with a data plane) over
        # an identically seeded cluster: the fallback *is* that code.
        def doomed(stripe, state):
            raise TransferAborted(0, 0, 0)
            yield  # pragma: no cover

        no_backoff = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        piped = make_setup(seed=1, retry=no_backoff)
        monkeypatch.setattr(piped.encoder, "_chain_attempt", doomed)
        plain = make_setup(seed=1, retry=no_backoff, strategy="download")
        assert type(plain.encoder) is StripeEncoder
        plain.encoder.data_plane = StreamingDataPlane(CODE, seed=1)

        def outcome(setup):
            stripe = setup.namenode.sealed_stripes()[0]
            assert not drive(setup, [stripe])
            (record,) = setup.encoder.records
            store = setup.namenode.block_store
            return (
                record,
                [store.replica_nodes(b) for b in stripe.all_block_ids()],
                [setup.encoder.data_plane.payloads[b]
                 for b in stripe.parity_block_ids],
            )

        assert outcome(piped) == outcome(plain)
        assert piped.encoder.pipeline_records[-1].fallback is True
        assert len(piped.encoder.pipeline_records) == 1

    def test_fallback_parity_identical_to_pipeline_parity(self):
        # Encode the same placement twice — once pipelined, once via the
        # fallback path — and require identical committed parity bytes.
        def committed_parity(force_fallback):
            setup = make_setup(seed=2)
            stripes = setup.namenode.sealed_stripes()
            if force_fallback:
                def doomed(stripe, state):
                    raise TransferAborted(0, 0, 0)
                    yield  # pragma: no cover

                setup.encoder._chain_attempt = doomed
            failures = drive(setup, stripes)
            assert not failures
            plane = setup.encoder.data_plane
            return {
                stripe.stripe_id: [
                    plane.payloads[block_id]
                    for block_id in sorted(stripe.parity_block_ids)
                ]
                for stripe in stripes
            }

        assert committed_parity(False) == committed_parity(True)


class TestChaosProperty:
    def test_random_storms_never_commit_wrong_parity(self):
        # A light randomized sweep: random victims at random times; every
        # stripe that reports ENCODED must verify, regardless of how many
        # retries/fallbacks it took.
        for seed in range(6):
            r = random.Random(seed)
            setup = make_setup(seed=seed, num_stripes=3)
            stripes = setup.namenode.sealed_stripes()
            nodes = sorted(setup.topology.node_ids())

            def chaos():
                for __ in range(3):
                    yield setup.sim.timeout(r.uniform(0.01, 2.0))
                    setup.network.fail_endpoint(r.choice(nodes))

            setup.sim.process(chaos())
            drive(setup, stripes)
            for stripe in stripes:
                if stripe.state == StripeState.ENCODED:
                    assert setup.encoder.data_plane.verify_stripe(stripe), (
                        seed, stripe.stripe_id,
                    )
