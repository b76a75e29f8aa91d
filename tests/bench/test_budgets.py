"""Counted-work budgets: deterministic perf regression tests.

Wall time is machine noise; these tests pin the *operation counts* the
instrumented hot paths report into :data:`repro.sim.metrics.PERF`.  If a
change makes encode do more GF multiplies per byte, or the EAR redraw loop
re-solve from scratch again, these fail on any machine, deterministically.
"""

import random
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster.topology import ClusterTopology
from repro.core.ear import EncodingAwareReplication
from repro.core.matching import RackMatching, retention_capacity
from repro.core.policy import PlacementError
from repro.erasure import matrix as gfm
from repro.erasure.codec import CodeParams, make_codec
from repro.erasure.stream import stream_decode, stream_encode, stream_repair
from repro.hdfs.encoder import download_star
from repro.pipeline.gfstream import pipelined_parity
from repro.recovery.storm import run_storm
from repro.sim.engine import AnyOf, Process, Simulator
from repro.sim.metrics import measure_ops
from repro.sim.netsim import Network
from repro.sim.resources import MultiResource
from tests.core.reference_flow import ear_redraws_vs_fresh
from tests.erasure.reference_gf import apply_to_shards_scalar


class TestGaloisBudgets:
    @pytest.mark.parametrize("n,k,size", [(14, 10, 4096), (9, 6, 1000)])
    def test_symbol_mults_per_encode_is_exactly_coeffs_times_bytes(
        self, n, k, size
    ):
        codec = make_codec(n, k)
        r = random.Random(0)
        data = [bytes(r.randrange(256) for __ in range(size)) for __ in range(k)]
        with measure_ops() as measured:
            codec.encode(data)
        # One table lookup per (parity row, data row, byte) — the fused
        # kernel must not do more work than the math requires.
        budget = (n - k) * k * size
        assert 0 < measured.get("gf.symbol_mults") <= budget

    def test_kernel_calls_at_least_5x_fewer_than_scalar(self):
        n, k, size = 14, 10, 4096
        codec = make_codec(n, k)
        r = random.Random(1)
        data = [bytes(r.randrange(256) for __ in range(size)) for __ in range(k)]
        shards = codec._stack(data, expected=k)
        with measure_ops() as batched:
            parity = codec.encode(data)
        with measure_ops() as scalar:
            reference = apply_to_shards_scalar(codec._generator[k:, :], shards)
        assert [row.tobytes() for row in reference] == parity
        assert (
            scalar.get("gf.kernel_calls")
            >= 5 * batched.get("gf.kernel_calls")
            > 0
        )

    def test_decode_matrix_cache_inverts_once_per_pattern(self):
        codec = make_codec(14, 10)
        r = random.Random(2)
        alive = sorted(r.sample(range(14), 10))
        repeats = 6
        with measure_ops() as measured:
            for __ in range(repeats):
                data = [
                    bytes(r.randrange(256) for __ in range(512))
                    for __ in range(10)
                ]
                stripe = data + codec.encode(data)
                assert codec.decode({i: stripe[i] for i in alive}) == data
        assert measured.get("codec.decode_matrix_misses") == 1
        assert measured.get("codec.decode_matrix_hits") == repeats - 1


class TestPackedKernelBudgets:
    @pytest.mark.parametrize("rows", range(1, 13))
    def test_one_table_gather_per_lane_group_per_fold(self, rows):
        # r output rows cost ceil-by-binary-decomposition gathers per
        # chunk, not r: 1 for r in {1, 2, 4, 8}, 3 for r in {7, 11}.
        lane_groups = bin(rows % 8).count("1") + rows // 8
        coeffs = np.full((rows, 5), 3, dtype=np.uint8)
        accumulator = gfm.Accumulator(gfm.PackedMatrix(coeffs), 4096)
        with measure_ops() as measured:
            accumulator.fold(2, bytes(4096))
        assert measured.get("gf.kernel_calls") == lane_groups
        assert measured.get("gf.symbol_mults") == rows * 4096

    def test_four_erasure_decode_multiplies_only_the_lost_rows(self):
        n, k, chunk, stripes = 14, 10, 512, 3
        payload = random.Random(3).randbytes(k * chunk * stripes)
        encoded = stream_encode(payload, n=n, k=k, chunk_size=chunk)
        survivors = encoded.available(exclude=(0, 1, 2, 3))
        with measure_ops() as measured:
            assert stream_decode(survivors, encoded.meta) == payload
        # Six of the ten decode rows are surviving data shards — unit rows,
        # copied through.  Only the four lost rows are multiplied: 4*k*chunk
        # per stripe, not k*k*chunk, in one uint32 gather per chunk.  (The
        # generator is memoised since the encode; inverting counts nothing.)
        assert measured.get("gf.symbol_mults") == 4 * k * chunk * stripes
        assert measured.get("gf.kernel_calls") == k * stripes
        assert measured.get("stream.stripes_decoded") == stripes

    @pytest.mark.parametrize("target,row_mults", [(0, 0), (13, 100)])
    def test_one_shard_repair_multiplies_one_row(self, target, row_mults):
        n, k, chunk, stripes = 14, 10, 512, 3
        payload = random.Random(4).randbytes(k * chunk * stripes)
        encoded = stream_encode(payload, n=n, k=k, chunk_size=chunk)
        survivors = encoded.available(exclude=(target,))
        with measure_ops() as measured:
            rebuilt = stream_repair(target, survivors, encoded.meta)
        assert rebuilt == encoded.shards[target]
        # One repair row over k sources per stripe.  A data shard's row is
        # a row of the decode matrix; a parity shard's is its generator row
        # times that matrix, k*k multiplies once per repair.
        assert (
            measured.get("gf.symbol_mults")
            == k * chunk * stripes + row_mults
        )
        assert measured.get("stream.chunks_repaired") == stripes

    def test_permuted_hop_order_folds_the_same_work_as_encode(self):
        n, k, size = 14, 10, 4096
        codec = make_codec(n, k)
        r = random.Random(5)
        blocks = [r.randbytes(size) for __ in range(k)]
        with measure_ops() as whole:
            expected = codec.encode(blocks)
        order = list(range(k))
        r.shuffle(order)
        with measure_ops() as hopped:
            parity = pipelined_parity(
                blocks, codec, hop_order=order, chunk_size=1024
            )
        assert parity == expected
        assert (
            hopped.get("gf.symbol_mults")
            == whole.get("gf.symbol_mults")
            == (n - k) * k * size
        )
        assert hopped.get("pipeline.hops") == k


class TestMaxflowBudgets:
    #: ``ear.redraw_attempts`` of the seeded 3-stripe run below.  The draws
    #: are a pure function of the seed; a different number means the
    #: ``rng`` stream or an accept/reject decision moved.
    ATTEMPTS = 31

    def _place(self, seed=5, stripes=3):
        topology = ClusterTopology.large_scale()
        code = CodeParams(14, 10)
        ear = EncodingAwareReplication(topology, code, rng=random.Random(seed))
        with measure_ops() as measured:
            decisions = [
                ear.place_block(block_id, writer_node=0)
                for block_id in range(stripes * code.k)
            ]
        return decisions, measured

    def test_one_level_graph_build_per_redraw_attempt(self):
        decisions, measured = self._place()
        attempts = measured.get("ear.redraw_attempts")
        assert attempts == sum(d.attempts for d in decisions) == self.ATTEMPTS
        # Incremental sessions: an attempt costs at most one BFS —
        # accepted attempts stop at limit=1 (or take the direct path and
        # build none), rejected ones fail on the first (and only)
        # unreachable-sink BFS.
        assert 0 < measured.get("maxflow.bfs_builds") <= attempts
        # One unit of flow routed per accepted block, however it was found.
        assert measured.get("maxflow.augmentations") == len(decisions)

    def test_redraw_counter_is_the_sum_of_decision_attempts(self):
        # EAR bumps the counter once per placement, by its attempt count.
        topology = ClusterTopology.large_scale()
        code = CodeParams(14, 10)
        ear = EncodingAwareReplication(topology, code, rng=random.Random(11))
        with measure_ops() as measured:
            decisions = [ear.place_block(block_id) for block_id in range(200)]
        assert any(d.attempts > 1 for d in decisions)
        assert measured.get("ear.redraw_attempts") == sum(
            d.attempts for d in decisions
        )

    def test_redraw_counter_counts_max_attempts_on_a_placement_error(self):
        topology = ClusterTopology.large_scale()
        code = CodeParams(14, 10)
        ear = EncodingAwareReplication(
            topology, code, rng=random.Random(11), max_attempts=3
        )
        decisions = []
        with measure_ops() as measured:
            with pytest.raises(PlacementError):
                for block_id in range(10_000):
                    decisions.append(ear.place_block(block_id, writer_node=0))
        assert measured.get("ear.redraw_attempts") == (
            sum(d.attempts for d in decisions) + ear.max_attempts
        )

    def test_directly_pushed_path_counts_as_an_augmentation(self):
        topology = ClusterTopology(2, 4)
        matching = RackMatching(topology.rack_of, retention_capacity(1))
        with measure_ops() as measured:
            assert matching.add(0, (0, 2))  # empty graph: direct path
        assert measured.get("maxflow.bfs_builds") == 0
        assert measured.get("maxflow.augmentations") == 1

    def test_incremental_strictly_cheaper_than_fresh_baseline(self):
        # Identical accept/reject decisions first (the replay raises
        # otherwise)...
        __, ops_inc, ops_fresh = ear_redraws_vs_fresh(5, num_blocks=30)
        assert ops_inc.get("ear.redraw_attempts") == self.ATTEMPTS
        # ...then strictly fewer level-graph builds.
        assert (
            ops_inc.get("maxflow.bfs_builds")
            < ops_fresh.get("maxflow.bfs_builds")
        )


class TestSimulatorBudget:
    def test_event_count_matches_scheduled_timeouts(self):
        sim = Simulator()
        timeouts = 25

        def ticker():
            for __ in range(timeouts):
                yield sim.timeout(1.0)

        processes = 4
        for __ in range(processes):
            sim.process(ticker())
        with measure_ops() as measured:
            sim.run()
        # Per process: one start event, one event per timeout fired, and
        # one completion event when the generator is exhausted.
        assert measured.get("sim.events") == processes * (timeouts + 2)


class TestLinkArbiterBudget:
    def test_traffic_on_other_keys_examines_no_parked_claim(self):
        # Examining a claim means testing its keys against the held set,
        # which hashes them: parked claims carry keys that count hashes.
        hashed = []

        class CountedKey:
            def __hash__(self):
                hashed.append(self)
                return 7

        links = MultiResource()
        granted = []
        busy = CountedKey()
        holder = links.acquire((busy,), granted.append)
        parked = [
            links.acquire((busy, CountedKey()), granted.append)
            for __ in range(500)
        ]
        assert links.queue_length == 500
        hashed.clear()
        for cycle in range(500):
            grant = links.acquire(
                (("nup", cycle), ("ndown", cycle + 1)), granted.append
            )
            assert granted[-1] is grant
            links.release(grant)
        # The list scan tested every parked claim on each of the 1000
        # operations (500 000 tests); the index tests none.
        assert hashed == []
        # And the parked claims are still served, in arrival order.
        granted.clear()
        links.release(holder)
        assert granted == parked[:1]

    def test_release_examines_only_the_claim_the_key_goes_to(self):
        # One resource, named by a distinct (equal) key object per claim,
        # so the hashes tell which parked claims a release examined.
        hashed = []

        class Alias:
            def __hash__(self):
                hashed.append(id(self))
                return 7

            def __eq__(self, other):
                return isinstance(other, Alias)

        links = MultiResource()
        granted = []
        holder = links.acquire((Alias(),), granted.append)
        parked = [links.acquire((Alias(),), granted.append) for __ in range(500)]
        assert links.queue_length == 500
        hashed.clear()
        granted.clear()
        links.release(holder)
        # The first claim gets the key; the other 499 name it too, so the
        # bucket is left the moment it is held again.
        examined = [c for c in parked if id(c.keys[0]) in set(hashed)]
        assert len(examined) <= 2
        assert granted == parked[:1]
        assert links.queue_length == 499


class TestTransferBudgets:
    """A transfer is a callback chain: one kernel event per link hold."""

    FLOWS = 500
    #: ``download_star`` reads block sizes from a store; a block id is its
    #: size here.
    SIZED = SimpleNamespace(block=lambda size: SimpleNamespace(size=size))

    def test_transfers_build_no_process_or_anyof_and_one_event_per_hold(
        self, monkeypatch
    ):
        topology = ClusterTopology(
            nodes_per_rack=4, num_racks=4,
            intra_rack_bandwidth=100.0, cross_rack_bandwidth=100.0,
        )
        sim = Simulator()
        network = Network(sim, topology)

        def inline():
            for index in range(self.FLOWS):
                yield from network.transfer(index % 8, 8 + index % 8, 50.0)

        def fanned_out():
            sources = [(50.0, index % 15) for index in range(self.FLOWS)]
            yield from download_star(network, self.SIZED, sources, 15)

        sim.process(inline())
        sim.process(fanned_out())
        built = Counter()
        for cls in (Process, AnyOf):
            def counting(event, *args, _cls=cls, _init=cls.__init__):
                built[_cls.__name__] += 1
                _init(event, *args)

            monkeypatch.setattr(cls, "__init__", counting)
        with measure_ops() as measured:
            sim.run()
        assert network.stats.transfers == 2 * self.FLOWS
        assert built == Counter()
        # One timeout per transfer, inline or started, plus two waiting
        # processes (start + done hop each) and one all_of hop.
        assert measured.get("sim.events") == 2 * self.FLOWS + 2 * 2 + 1


class TestRepairDispatchBudget:
    """Dispatch work per repair stays flat as a rack-loss storm deepens.

    The seed-0 rack loss on 20x10 nodes, RS(14,10), c = 1.  Sorting every
    waiting block at each wakeup computed 40.8 risk keys per started
    repair at 150 stripes and 113.4 at 600; the heap computes about two
    (one at enqueue, one when popped) plus re-keys after a fall.
    """

    #: stripes -> (started repairs, ``repair.dispatch_keys``,
    #: ``repair.candidates_examined``), pinned from the seeded runs.
    PINNED = {150: (125, 260, 9290), 600: (446, 895, 31930)}

    @pytest.fixture(scope="class")
    def storms(self):
        measured = {}
        for stripes in self.PINNED:
            with measure_ops() as ops:
                report = run_storm(
                    "rack_loss", seed=0, num_racks=20, nodes_per_rack=10,
                    num_stripes=stripes, code=CodeParams(14, 10), ear_c=1,
                )
            assert report.clean
            measured[stripes] = (
                sum(report.repair_outcomes.values()),
                ops.get("repair.dispatch_keys"),
                ops.get("repair.candidates_examined"),
            )
        return measured

    def test_counts_match_the_pinned_runs(self, storms):
        assert storms == self.PINNED

    def test_keys_per_repair_do_not_grow_with_the_queue(self, storms):
        per_repair = {
            stripes: keys / repairs
            for stripes, (repairs, keys, __) in storms.items()
        }
        assert per_repair[600] <= 1.5 * per_repair[150]
