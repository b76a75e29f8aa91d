"""Built-in micro-benchmark scenarios over the library's hot paths.

Each scenario is a named, seeded callable; the runner executes it under a
wall-time clock and a :data:`repro.sim.metrics.PERF` snapshot, so a scenario
only has to *do the work* — counted operations are collected for free by the
instrumented kernels.  Scenarios may also return derived ``metrics``
(ratios, checksums, split op-counts from internal differential runs).

Differential scenarios (``*_vs_*`` / ``*_identity``) run the optimized and
the historical code path on identical inputs and **assert equality inline**,
so every ``repro bench`` invocation re-proves that the fast paths did not
buy speed with wrongness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.sim.metrics import measure_ops


@dataclass(frozen=True)
class Scenario:
    """One named benchmark unit.

    Attributes:
        name: Unique dotted name (``micro.rs_encode``).
        group: ``"micro"`` for built-ins, ``"figure"`` for discovered
            ``benchmarks/bench_*.py`` tests.
        params: The sizes/knobs the scenario ran with (recorded verbatim).
        fn: The workload; receives a seeded RNG, returns derived metrics
            (or ``None``).
    """

    name: str
    group: str
    params: Dict[str, object] = field(default_factory=dict)
    fn: Callable[[random.Random], Optional[Dict[str, float]]] = lambda rng: None


def _random_blocks(rng: random.Random, count: int, size: int) -> List[bytes]:
    return [rng.randbytes(size) for __ in range(count)]


def _random_array(rng: random.Random, size: int) -> np.ndarray:
    return np.frombuffer(rng.randbytes(size), dtype=np.uint8).copy()


# ----------------------------------------------------------------------
# GF(2^8) kernels
# ----------------------------------------------------------------------
def _gf_mul_array(size: int, scalars: int):
    def run(rng: random.Random) -> Dict[str, float]:
        from repro.erasure.galois import GF256

        data = _random_array(rng, size)
        checksum = 0
        for __ in range(scalars):
            out = GF256.mul_array(rng.randrange(256), data)
            checksum ^= int(np.bitwise_xor.reduce(out))
        return {"checksum": float(checksum)}

    return run


def _gf_mul_scalar_loop(pairs: int):
    def run(rng: random.Random) -> Dict[str, float]:
        from repro.erasure.galois import GF256

        checksum = 0
        for __ in range(pairs):
            checksum ^= GF256.mul(rng.randrange(256), rng.randrange(256))
        return {"checksum": float(checksum)}

    return run


# ----------------------------------------------------------------------
# Stripe codecs
# ----------------------------------------------------------------------
def _rs_encode(n: int, k: int, block: int, stripes: int, scheme: str):
    def run(rng: random.Random) -> Dict[str, float]:
        from repro.erasure.codec import make_codec

        codec = make_codec(n, k, scheme)
        encoded = 0
        for __ in range(stripes):
            parity = codec.encode(_random_blocks(rng, k, block))
            encoded += len(parity)
        return {"parity_blocks": float(encoded)}

    return run


def _rs_encode_vs_scalar(n: int, k: int, block: int):
    def run(rng: random.Random) -> Dict[str, float]:
        from repro.erasure import matrix as gfm
        from repro.erasure.codec import make_codec

        codec = make_codec(n, k)
        data = _random_blocks(rng, k, block)
        with measure_ops() as batched:
            parity = codec.encode(data)
        shards = codec._stack(data, expected=k)
        with measure_ops() as scalar:
            reference = gfm.apply_to_shards_scalar(codec.parity_rows, shards)
        if [row.tobytes() for row in reference] != parity:
            raise AssertionError("batched encode diverged from scalar oracle")
        calls_batched = batched.get("gf.kernel_calls")
        calls_scalar = scalar.get("gf.kernel_calls")
        return {
            "gf_calls_batched": float(calls_batched),
            "gf_calls_scalar": float(calls_scalar),
            "gf_call_ratio": calls_scalar / max(1, calls_batched),
        }

    return run


def _rs_decode_roundtrip(n: int, k: int, block: int, scheme: str):
    def run(rng: random.Random) -> Dict[str, float]:
        from repro.erasure.codec import make_codec

        codec = make_codec(n, k, scheme)
        data = _random_blocks(rng, k, block)
        stripe = list(data) + codec.encode(data)
        alive = sorted(rng.sample(range(n), k))
        decoded = codec.decode({index: stripe[index] for index in alive})
        if decoded != data:
            raise AssertionError("decode did not recover the data blocks")
        return {"survivors": float(len(alive))}

    return run


def _rs_decode_matrix_cache(n: int, k: int, block: int, repeats: int):
    def run(rng: random.Random) -> Dict[str, float]:
        from repro.erasure.codec import make_codec

        codec = make_codec(n, k)
        alive = sorted(rng.sample(range(n), k))
        with measure_ops() as measured:
            for __ in range(repeats):
                data = _random_blocks(rng, k, block)
                stripe = list(data) + codec.encode(data)
                decoded = codec.decode({i: stripe[i] for i in alive})
                if decoded != data:
                    raise AssertionError("cached decode returned wrong bytes")
        return {
            "cache_hits": float(measured.get("codec.decode_matrix_hits")),
            "cache_misses": float(measured.get("codec.decode_matrix_misses")),
        }

    return run


def _lrc_encode(k: int, groups: int, global_parities: int, block: int):
    def run(rng: random.Random) -> Dict[str, float]:
        from repro.erasure.lrc import LocalReconstructionCodec, LRCParams

        codec = LocalReconstructionCodec(LRCParams(k, groups, global_parities))
        parity = codec.encode(_random_blocks(rng, k, block))
        return {"parity_blocks": float(len(parity))}

    return run


def _lrc_local_repair(k: int, groups: int, global_parities: int, block: int):
    def run(rng: random.Random) -> Dict[str, float]:
        from repro.erasure.lrc import LocalReconstructionCodec, LRCParams

        params = LRCParams(k, groups, global_parities)
        codec = LocalReconstructionCodec(params)
        data = _random_blocks(rng, k, block)
        stripe = list(data) + codec.encode(data)
        lost = rng.randrange(k)
        available = {i: stripe[i] for i in range(params.n) if i != lost}
        rebuilt, read = codec.repair(lost, available)
        if rebuilt != data[lost]:
            raise AssertionError("local repair returned wrong bytes")
        return {"blocks_read": float(len(read))}

    return run


# ----------------------------------------------------------------------
# Streaming data plane
# ----------------------------------------------------------------------
def _stream_encode_throughput(
    payload_bytes: int, chunk_sizes: List[int], n: int, k: int
):
    """Streaming encode MB/s per chunk size.

    Asserts the data shards are the payload, striped (the parity is
    checked by ``stream_decode``, which can only round-trip through it).
    Non-``wall_`` metrics (stripe counts) are exact.
    """

    def run(rng: random.Random) -> Dict[str, float]:
        import time

        from repro.erasure.stream import stream_encode

        payload = rng.randbytes(payload_bytes)
        metrics: Dict[str, float] = {"payload_bytes": float(payload_bytes)}
        for chunk_size in chunk_sizes:
            start = time.perf_counter()
            encoded = stream_encode(payload, n=n, k=k, chunk_size=chunk_size)
            elapsed = time.perf_counter() - start
            if encoded.payload() != payload:
                raise AssertionError("stream encode mis-striped the payload")
            mb = payload_bytes / float(1 << 20)
            metrics[f"wall_mb_per_s_numpy_c{chunk_size}"] = mb / max(
                elapsed, 1e-9
            )
            metrics[f"stripes_c{chunk_size}"] = float(
                encoded.meta.num_stripes
            )
        return metrics

    return run


def _stream_decode_throughput(
    payload_bytes: int, chunk_sizes: List[int], n: int, k: int
):
    """Streaming decode MB/s per chunk size after dropping ``n - k`` shards.

    Each pass encodes the payload, discards the ``n - k`` lowest-index
    shards (the worst case: every survivor row needs the inverted decode
    matrix), stream-decodes from the survivors, and asserts the payload
    round-trips.
    """

    def run(rng: random.Random) -> Dict[str, float]:
        import time

        from repro.erasure.stream import stream_decode, stream_encode

        payload = rng.randbytes(payload_bytes)
        lost = list(range(n - k))
        metrics: Dict[str, float] = {"payload_bytes": float(payload_bytes)}
        for chunk_size in chunk_sizes:
            encoded = stream_encode(payload, n=n, k=k, chunk_size=chunk_size)
            survivors = encoded.available(exclude=lost)
            start = time.perf_counter()
            decoded = stream_decode(survivors, encoded.meta)
            elapsed = time.perf_counter() - start
            if decoded != payload:
                raise AssertionError("stream decode did not round-trip")
            mb = payload_bytes / float(1 << 20)
            metrics[f"wall_mb_per_s_numpy_c{chunk_size}"] = mb / max(
                elapsed, 1e-9
            )
        metrics["shards_lost"] = float(len(lost))
        return metrics

    return run


def _stream_repair_throughput(
    payload_bytes: int, chunk_sizes: List[int], n: int, k: int
):
    """Streaming single-shard repair MB/s per chunk size.

    Repairs one data shard and one parity shard per chunk size and asserts
    the rebuilt chunk streams match the originals byte for byte.
    """

    def run(rng: random.Random) -> Dict[str, float]:
        import time

        from repro.erasure.stream import stream_encode, stream_repair

        payload = rng.randbytes(payload_bytes)
        metrics: Dict[str, float] = {"payload_bytes": float(payload_bytes)}
        repaired_chunks = 0
        for chunk_size in chunk_sizes:
            encoded = stream_encode(payload, n=n, k=k, chunk_size=chunk_size)
            repaired_bytes = 0
            start = time.perf_counter()
            for target in (0, n - 1):
                rebuilt = stream_repair(
                    target,
                    encoded.available(exclude=[target]),
                    encoded.meta,
                )
                if rebuilt != encoded.shards[target]:
                    raise AssertionError(
                        f"stream repair of shard {target} diverged"
                    )
                repaired_bytes += sum(len(c) for c in rebuilt)
                repaired_chunks += len(rebuilt)
            elapsed = time.perf_counter() - start
            mb = repaired_bytes / float(1 << 20)
            metrics[f"wall_mb_per_s_numpy_c{chunk_size}"] = mb / max(
                elapsed, 1e-9
            )
        metrics["repaired_chunks"] = float(repaired_chunks)
        return metrics

    return run


# ----------------------------------------------------------------------
# Max-flow and EAR placement
# ----------------------------------------------------------------------
def _draw_stripe_layouts(
    rng: random.Random, stripes: int, blocks: int, replicas: int, num_nodes: int
) -> List[List[Tuple[int, List[int]]]]:
    layouts = []
    for __ in range(stripes):
        layouts.append(
            [
                (block, rng.sample(range(num_nodes), replicas))
                for block in range(blocks)
            ]
        )
    return layouts


def _maxflow_fresh(stripes: int, blocks: int):
    def run(rng: random.Random) -> Dict[str, float]:
        from repro.cluster.topology import ClusterTopology
        from repro.core.flowgraph import StripeFlowGraph

        topology = ClusterTopology(nodes_per_rack=10, num_racks=8)
        graph = StripeFlowGraph(topology, c=2)
        layouts = _draw_stripe_layouts(
            rng, stripes, blocks, replicas=3, num_nodes=topology.num_nodes
        )
        feasible = 0
        for layout in layouts:
            flow = graph.max_matching_size(dict(layout))
            feasible += int(flow == blocks)
        return {"feasible_stripes": float(feasible)}

    return run


def _maxflow_incremental_vs_fresh(stripes: int, blocks: int):
    def run(rng: random.Random) -> Dict[str, float]:
        from repro.cluster.topology import ClusterTopology
        from repro.core.flowgraph import StripeFlowGraph

        topology = ClusterTopology(nodes_per_rack=10, num_racks=8)
        graph = StripeFlowGraph(topology, c=2)
        layouts = _draw_stripe_layouts(
            rng, stripes, blocks, replicas=3, num_nodes=topology.num_nodes
        )
        with measure_ops() as incremental:
            accepted_incremental = []
            for layout in layouts:
                session = graph.session()
                accepted = [
                    block
                    for block, nodes in layout
                    if session.try_place(block, nodes)
                ]
                accepted_incremental.append(accepted)
        with measure_ops() as fresh:
            accepted_fresh = []
            for layout in layouts:
                kept: Dict[int, List[int]] = {}
                accepted = []
                for block, nodes in layout:
                    candidate = dict(kept)
                    candidate[block] = nodes
                    if graph.max_matching_size(candidate) == len(candidate):
                        kept[block] = nodes
                        accepted.append(block)
                accepted_fresh.append(accepted)
        if accepted_incremental != accepted_fresh:
            raise AssertionError("incremental max-flow diverged from fresh")
        return {
            "bfs_incremental": float(incremental.get("maxflow.bfs_builds")),
            "bfs_fresh": float(fresh.get("maxflow.bfs_builds")),
        }

    return run


def _ear_place(stripes: int):
    def run(rng: random.Random) -> Dict[str, float]:
        from repro.cluster.topology import ClusterTopology
        from repro.core.ear import EncodingAwareReplication
        from repro.erasure.codec import CodeParams

        topology = ClusterTopology.large_scale()
        code = CodeParams(14, 10)
        ear = EncodingAwareReplication(
            topology, code, rng=random.Random(rng.randrange(2**31))
        )
        with measure_ops() as measured:
            for block_id in range(stripes * code.k):
                ear.place_block(block_id, writer_node=0)
        return {
            "stripes_placed": float(len(ear.store.sealed_stripes())),
            "redraw_attempts": float(measured.get("ear.redraw_attempts")),
            "bfs_builds": float(measured.get("maxflow.bfs_builds")),
        }

    return run


def ear_redraws_vs_fresh(seed: int, num_blocks: int, writers: int = 1):
    """Place (14,10) blocks with EAR on the 20x20 cluster, then replay every
    candidate layout it drew against the from-scratch reference.

    The reference is the public ``StripeFlowGraph.max_matching_size``: a
    candidate for the i-th block of a stripe must be accepted iff the
    accepted layout plus the candidate has max flow i.  Block ``b`` is
    written from node ``b % writers``.

    Returns:
        ``(decisions, ops_incremental, ops_fresh)`` — the placement
        decisions and the counted work of the placement and of the replay.

    Raises:
        AssertionError: On the first accept/reject decision that differs.
    """
    from repro.cluster.topology import ClusterTopology
    from repro.core.ear import EncodingAwareReplication
    from repro.erasure.codec import CodeParams

    drawn: List[List[int]] = []

    class RecordingEar(EncodingAwareReplication):
        """EAR that remembers every candidate layout it drew."""

        def _draw_candidate(self, core_rack, stripe):
            nodes = super()._draw_candidate(core_rack, stripe)
            drawn.append(nodes)
            return nodes

    ear = RecordingEar(
        ClusterTopology.large_scale(), CodeParams(14, 10),
        rng=random.Random(seed),
    )
    with measure_ops() as incremental:
        decisions = [
            ear.place_block(block_id, writer_node=block_id % writers)
            for block_id in range(num_blocks)
        ]
    draws = iter(drawn)
    kept: Dict[int, Dict[int, List[int]]] = {}
    with measure_ops() as fresh:
        for decision in decisions:
            graph = ear.flow_graph_for(ear.store.stripe(decision.stripe_id))
            layout = kept.setdefault(decision.stripe_id, {})
            for attempt in range(1, decision.attempts + 1):
                candidate = {**layout, decision.block_id: next(draws)}
                feasible = graph.max_matching_size(candidate) == len(candidate)
                if feasible != (attempt == decision.attempts):
                    raise AssertionError(
                        "incremental EAR redraw loop diverged from the "
                        "fresh solver"
                    )
            layout[decision.block_id] = list(decision.node_ids)
    return decisions, incremental, fresh


def _ear_identity(stripes: int):
    def run(rng: random.Random) -> Dict[str, float]:
        __, incremental, fresh = ear_redraws_vs_fresh(
            rng.randrange(2**31), stripes * 10
        )
        return {
            "bfs_incremental": float(incremental.get("maxflow.bfs_builds")),
            "bfs_fresh": float(fresh.get("maxflow.bfs_builds")),
        }

    return run


# ----------------------------------------------------------------------
# Recovery storms
# ----------------------------------------------------------------------
def _degraded_read_decode(num_stripes: int, num_reads: int):
    def run(rng: random.Random) -> Dict[str, float]:
        from repro.recovery import run_storm

        report = run_storm(
            "single_node_loss",
            seed=rng.randrange(2**31),
            policy="ear",
            num_stripes=num_stripes,
            num_reads=num_reads,
        )
        if not report.clean:
            raise AssertionError("single-node-loss storm left data loss")
        summary = report.recovery_summary
        return {
            "degraded_reads": float(report.read_modes.get("degraded", 0)),
            "degraded_read_mean_latency": float(
                summary.get("degraded_read_mean_latency", 0.0)
            ),
            "degraded_read_bytes": float(
                summary.get("degraded_read_bytes", 0.0)
            ),
            "escalations": float(summary.get("escalations", 0.0)),
        }

    return run


def _repair_storm_throughput(num_stripes: int):
    def run(rng: random.Random) -> Dict[str, float]:
        from repro.recovery import run_storm

        seed = rng.randrange(2**31)
        per_policy = {}
        for policy in ("ear", "recovery"):
            report = run_storm(
                "rack_loss", seed=seed, policy=policy,
                num_stripes=num_stripes,
            )
            if not report.clean:
                raise AssertionError(
                    f"rack-loss storm under {policy} left data loss"
                )
            per_policy[policy] = report.recovery_summary
        return {
            "repairs": float(per_policy["ear"].get("repairs", 0.0)),
            "repair_bytes": float(per_policy["ear"].get("repair_bytes", 0.0)),
            "repair_time_mean_ear": float(
                per_policy["ear"].get("repair_time_mean", 0.0)
            ),
            "repair_time_mean_recovery": float(
                per_policy["recovery"].get("repair_time_mean", 0.0)
            ),
        }

    return run


# ----------------------------------------------------------------------
# Metadata journal
# ----------------------------------------------------------------------
def _journal_append(records: int, segment_records: int):
    def run(rng: random.Random) -> Dict[str, float]:
        import os
        import tempfile

        from repro.journal import MetadataJournal
        from repro.journal.records import AddBlock

        with tempfile.TemporaryDirectory() as directory:
            journal = MetadataJournal(
                directory, segment_records=segment_records
            )
            with measure_ops() as measured:
                for index in range(records):
                    journal.append(AddBlock(
                        block_id=index,
                        size=1 + rng.randrange(1 << 20),
                        kind="data",
                        stripe_id=None,
                    ))
                journal.flush()
            journal.close()
            segment_bytes = sum(
                os.path.getsize(os.path.join(directory, name))
                for name in os.listdir(directory)
            )
        appended = measured.get("journal.records_appended")
        return {
            "records": float(appended),
            "bytes_per_record": float(segment_bytes) / max(1.0, appended),
            "segments_rotated": float(
                measured.get("journal.segments_rotated")
            ),
        }

    return run


def _journal_replay():
    def run(rng: random.Random) -> Dict[str, float]:
        import tempfile

        from repro.faults.crash import run_crash_workload
        from repro.journal import recover

        with tempfile.TemporaryDirectory() as directory:
            golden = run_crash_workload(directory, seed=rng.randrange(2**31))
            fingerprint = golden.journal.current_fingerprint()
            golden.journal.close()
            with measure_ops() as measured:
                recovered = recover(
                    directory, golden.topology, k=golden.code.k
                )
            assert recovered.fingerprint() == fingerprint
        return {
            "log_records": float(golden.last_seq),
            "replayed_ops": float(measured.get("journal.replayed_ops")),
        }

    return run


def _journal_checkpoint():
    def run(rng: random.Random) -> Dict[str, float]:
        import os
        import tempfile

        from repro.faults.crash import run_crash_workload
        from repro.journal.wal import list_segments

        with tempfile.TemporaryDirectory() as directory:
            golden = run_crash_workload(directory, seed=rng.randrange(2**31))
            segments_before = len(list_segments(directory))
            with measure_ops() as measured:
                path = golden.journal.checkpoint(prune=True)
            checkpoint_bytes = os.path.getsize(path)
            segments_after = len(list_segments(directory))
            golden.journal.close()
        return {
            "checkpoint_bytes": float(checkpoint_bytes),
            "segments_pruned": float(segments_before - segments_after),
            "checkpoints": float(measured.get("journal.checkpoints")),
        }

    return run


# ----------------------------------------------------------------------
# Simulation kernel
# ----------------------------------------------------------------------
def _sim_event_churn(events: int, processes: int, timeouts: int):
    def run(rng: random.Random) -> Dict[str, float]:
        import sys

        from repro.sim.engine import Event, Simulator
        from repro.sim.metrics import measure_ops as measure

        class DictEvent(Event):
            """The pre-__slots__ layout: same event plus an instance dict."""

        sim = Simulator()
        # sys.getsizeof is deterministic per interpreter build, unlike a
        # tracemalloc trace, so the reduction can be asserted and recorded.
        slotted = sys.getsizeof(Event(sim))
        dict_probe = DictEvent(sim)
        dictful = sys.getsizeof(dict_probe) + sys.getsizeof(dict_probe.__dict__)
        if slotted >= dictful:
            raise AssertionError(
                "slotted events are not smaller than dict-bearing events"
            )

        churn_sim = Simulator()
        delays = [rng.random() for __ in range(processes)]

        def ticker(delay: float):
            for __ in range(timeouts):
                yield churn_sim.timeout(delay)

        for delay in delays:
            churn_sim.process(ticker(delay))
        with measure() as measured:
            churn_sim.run()
        return {
            "bytes_per_event_slots": float(slotted),
            "bytes_per_event_dict": float(dictful),
            "alloc_reduction": 1.0 - slotted / dictful,
            "events_churned": float(measured.get("sim.events")),
        }

    return run


def _parallel_sweep_speedup(trials: int, blocks: int, workers: int):
    def run(rng: random.Random) -> Dict[str, float]:
        import time

        from repro.erasure.codec import CodeParams
        from repro.experiments.loadbalance import (
            LoadBalanceConfig,
            _storage_trial,
        )
        from repro.parallel import SweepExecutor, TrialSpec

        config = LoadBalanceConfig(
            num_racks=8, nodes_per_rack=4, code=CodeParams(6, 4)
        )
        seed = rng.randrange(2**31)
        specs = [
            TrialSpec(
                fn=_storage_trial,
                config={
                    "policy_name": "rr",
                    "config": config,
                    "num_blocks": blocks,
                },
                seed=seed + index,
                tag="bench.sweep_speedup",
            )
            for index in range(trials)
        ]
        start = time.perf_counter()
        sequential = SweepExecutor(workers=0).map_trials(specs)
        wall_sequential = time.perf_counter() - start
        start = time.perf_counter()
        parallel = SweepExecutor(workers=workers).map_trials(specs)
        wall_parallel = time.perf_counter() - start
        if sequential != parallel:
            raise AssertionError("parallel sweep diverged from sequential")
        # "wall_"-prefixed metrics are machine noise by convention; the
        # runner's differential comparison strips them (see _strip_wall).
        return {
            "trials": float(trials),
            "workers": float(workers),
            "wall_sequential_s": wall_sequential,
            "wall_parallel_s": wall_parallel,
            "wall_speedup": wall_sequential / max(wall_parallel, 1e-9),
        }

    return run


def _lint_whole_program(files: int, funcs: int):
    """Cold + warm whole-program lint over a synthetic package.

    The corpus is generated (never ``src/repro`` itself) so the op
    counts — ``lint.files_analyzed`` / ``lint.functions_analyzed`` on
    the cold pass, ``lint.files_cached`` on the warm pass — are exact
    and stable across PRs that merely grow the real package.
    """

    def run(rng: random.Random) -> Dict[str, float]:
        import tempfile
        import time
        from pathlib import Path

        from repro.lint.config import LintConfig
        from repro.lint.project import LintCache, lint_project

        with tempfile.TemporaryDirectory() as root:
            pkg = Path(root) / "lintbench"
            pkg.mkdir()
            (pkg / "__init__.py").write_text("", encoding="utf-8")
            for index in range(files):
                lines = [f'"""Synthetic module {index}."""']
                if index:
                    lines.append(
                        f"from lintbench.mod{index - 1} import fn{index - 1}_0"
                    )
                for fn in range(funcs):
                    lines.append(f"def fn{index}_{fn}(x):")
                    lines.append(f"    return x + {rng.randrange(100)}")
                (pkg / f"mod{index}.py").write_text(
                    "\n".join(lines) + "\n", encoding="utf-8"
                )
            config = LintConfig()
            cache_dir = Path(root) / "cache"
            start = time.perf_counter()
            cold = lint_project([str(pkg)], config, cache=LintCache(cache_dir))
            wall_cold = time.perf_counter() - start
            start = time.perf_counter()
            warm = lint_project([str(pkg)], config, cache=LintCache(cache_dir))
            wall_warm = time.perf_counter() - start
        if cold.findings or warm.findings:
            raise AssertionError("synthetic corpus should lint clean")
        if warm.files_cached < 0.9 * warm.files_checked:
            raise AssertionError("warm cache skipped fewer than 90% of files")
        return {
            "files": float(cold.files_checked),
            "functions_analyzed": float(cold.functions_analyzed),
            "warm_cached_fraction": warm.files_cached / warm.files_checked,
            "wall_cold_s": wall_cold,
            "wall_warm_s": wall_warm,
        }

    return run


def _pipeline_encode_throughput(
    block_bytes: int, chunk_sizes: List[int], n: int, k: int,
):
    """Hop-ordered pipelined parity MB/s per chunk size.

    Every measured pass folds the ``k`` blocks in a shuffled hop order
    and asserts byte-identity against the whole-stripe
    ``codec.encode`` — the invariant the pipelined transition strategy
    rests on.  Non-``wall_`` metrics (hop counts, GF kernel calls) are
    exact.
    """

    def run(rng: random.Random) -> Dict[str, float]:
        import time

        from repro.erasure.codec import make_codec
        from repro.pipeline.gfstream import pipelined_parity

        codec = make_codec(n, k)
        blocks = [rng.randbytes(block_bytes) for __ in range(k)]
        expected = [bytes(p) for p in codec.encode(blocks)]
        metrics: Dict[str, float] = {"block_bytes": float(block_bytes)}
        mb = k * block_bytes / float(1 << 20)
        for chunk_size in chunk_sizes:
            order = list(range(k))
            rng.shuffle(order)
            with measure_ops() as measured:
                start = time.perf_counter()
                parity = pipelined_parity(
                    blocks, codec, hop_order=order, chunk_size=chunk_size
                )
                elapsed = time.perf_counter() - start
            if [bytes(p) for p in parity] != expected:
                raise AssertionError(
                    "pipelined parity diverged from whole-stripe encode"
                )
            metrics[f"wall_mb_per_s_numpy_c{chunk_size}"] = mb / max(
                elapsed, 1e-9
            )
            metrics[f"gf_kernel_calls_c{chunk_size}"] = float(
                measured.get("gf.kernel_calls")
            )
            metrics[f"hops_c{chunk_size}"] = float(
                measured.get("pipeline.hops")
            )
        return metrics

    return run


def _pipeline_headtohead(stripes: int):
    """RR vs EAR vs pipelined encoding wave on one seeded cluster.

    In-process (no workers) so the scenario is self-contained; all
    metrics come off the simulated clock and network counters, hence
    exact and seed-stable.  The deltas are the tentpole's headline:
    encoding-window and core-link-byte savings of the pipelined strategy
    over the download strategies.
    """

    def run(rng: random.Random) -> Dict[str, float]:
        from repro.pipeline.headtohead import head_to_head

        seed = rng.randrange(2**31)
        results = {
            r["contender"]: r
            for r in head_to_head(
                seeds=(seed,), num_racks=6, nodes_per_rack=4,
                num_stripes=stripes, disturb=False,
            )
        }
        if not all(r["clean"] for r in results.values()):
            raise AssertionError("head-to-head wave was not clean")
        pipeline = results["pipeline"]
        if pipeline["parity_verified"] != pipeline["stripes_encoded"]:
            raise AssertionError("pipelined parity failed verification")
        metrics: Dict[str, float] = {"stripes": float(stripes)}
        for contender, result in sorted(results.items()):
            metrics[f"encode_window_{contender}"] = float(
                result["encode_window"]
            )
            metrics[f"core_bytes_{contender}"] = float(result["core_bytes"])
        metrics["window_saving_vs_rr"] = (
            metrics["encode_window_rr"] - metrics["encode_window_pipeline"]
        )
        metrics["window_saving_vs_ear"] = (
            metrics["encode_window_ear"] - metrics["encode_window_pipeline"]
        )
        metrics["core_saving_vs_rr"] = (
            metrics["core_bytes_rr"] - metrics["core_bytes_pipeline"]
        )
        return metrics

    return run


def _sim_events(processes: int, timeouts: int):
    def run(rng: random.Random) -> Dict[str, float]:
        from repro.sim.engine import Simulator

        sim = Simulator()
        delays = [rng.random() for __ in range(processes)]

        def ticker(delay: float):
            for __ in range(timeouts):
                yield sim.timeout(delay)

        for delay in delays:
            sim.process(ticker(delay))
        with measure_ops() as measured:
            sim.run()
        return {"events": float(measured.get("sim.events"))}

    return run


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def builtin_scenarios(smoke: bool = False) -> List[Scenario]:
    """The built-in micro scenarios, sized for full or ``--smoke`` runs."""
    array = 1 << 14 if smoke else 1 << 20
    block = 4096 if smoke else 65536
    stripes = 1 if smoke else 4
    layouts = 20 if smoke else 200
    ear_stripes = 2 if smoke else 12
    processes = 20 if smoke else 100
    timeouts = 50 if smoke else 500
    journal_records = 200 if smoke else 2000
    stream_payload = 1 << 18 if smoke else 1 << 22
    stream_chunks = [1 << 14, 1 << 16] if smoke else [1 << 16, 1 << 18, 1 << 20]

    def scenario(name: str, params: Dict[str, object], fn) -> Scenario:
        return Scenario(name=f"micro.{name}", group="micro", params=params, fn=fn)

    return [
        scenario(
            "gf_mul_array",
            {"bytes": array // 16, "scalars": 64},
            _gf_mul_array(array // 16, 64),
        ),
        scenario(
            "gf_mul_scalar_loop", {"pairs": 10_000}, _gf_mul_scalar_loop(10_000)
        ),
        scenario(
            "rs_encode",
            {"n": 14, "k": 10, "block_bytes": block, "stripes": stripes},
            _rs_encode(14, 10, block, stripes, "reed-solomon"),
        ),
        scenario(
            "rs_encode_vs_scalar",
            {"n": 14, "k": 10, "block_bytes": block},
            _rs_encode_vs_scalar(14, 10, block),
        ),
        scenario(
            "rs_decode_roundtrip",
            {"n": 14, "k": 10, "block_bytes": block},
            _rs_decode_roundtrip(14, 10, block, "reed-solomon"),
        ),
        scenario(
            "rs_decode_matrix_cache",
            {"n": 14, "k": 10, "block_bytes": block // 4, "repeats": 8},
            _rs_decode_matrix_cache(14, 10, block // 4, 8),
        ),
        scenario(
            "cauchy_encode",
            {"n": 14, "k": 10, "block_bytes": block, "stripes": stripes},
            _rs_encode(14, 10, block, stripes, "cauchy-rs"),
        ),
        scenario(
            "cauchy_decode_roundtrip",
            {"n": 14, "k": 10, "block_bytes": block},
            _rs_decode_roundtrip(14, 10, block, "cauchy-rs"),
        ),
        scenario(
            "lrc_encode",
            {"k": 12, "local_groups": 2, "global_parities": 2, "block_bytes": block},
            _lrc_encode(12, 2, 2, block),
        ),
        scenario(
            "lrc_local_repair",
            {"k": 12, "local_groups": 2, "global_parities": 2, "block_bytes": block},
            _lrc_local_repair(12, 2, 2, block),
        ),
        scenario(
            "stream_encode",
            {
                "n": 6,
                "k": 4,
                "payload_bytes": stream_payload,
                "chunk_sizes": list(stream_chunks),
            },
            _stream_encode_throughput(stream_payload, stream_chunks, 6, 4),
        ),
        scenario(
            "stream_decode",
            {
                "n": 6,
                "k": 4,
                "payload_bytes": stream_payload,
                "chunk_sizes": list(stream_chunks),
            },
            _stream_decode_throughput(stream_payload, stream_chunks, 6, 4),
        ),
        scenario(
            "stream_repair",
            {
                "n": 6,
                "k": 4,
                "payload_bytes": stream_payload,
                "chunk_sizes": list(stream_chunks),
            },
            _stream_repair_throughput(stream_payload, stream_chunks, 6, 4),
        ),
        scenario(
            "pipeline_encode",
            {
                "n": 6,
                "k": 4,
                "block_bytes": stream_payload // 4,
                "chunk_sizes": list(stream_chunks),
            },
            _pipeline_encode_throughput(
                stream_payload // 4, stream_chunks, 6, 4
            ),
        ),
        scenario(
            "pipeline_headtohead",
            {"stripes": 2 if smoke else 4, "contenders": "rr/ear/pipeline"},
            _pipeline_headtohead(2 if smoke else 4),
        ),
        scenario(
            "maxflow_fresh",
            {"stripes": layouts, "blocks": 10},
            _maxflow_fresh(layouts, 10),
        ),
        scenario(
            "maxflow_incremental_vs_fresh",
            {"stripes": layouts, "blocks": 10},
            _maxflow_incremental_vs_fresh(layouts, 10),
        ),
        scenario(
            "ear_place_incremental",
            {"stripes": ear_stripes, "code": "(14,10)"},
            _ear_place(ear_stripes),
        ),
        scenario(
            "ear_incremental_vs_fresh_identity",
            {"stripes": max(1, ear_stripes // 2), "code": "(14,10)"},
            _ear_identity(max(1, ear_stripes // 2)),
        ),
        scenario(
            "sim_event_throughput",
            {"processes": processes, "timeouts": timeouts},
            _sim_events(processes, timeouts),
        ),
        scenario(
            "sim_event_churn",
            {
                "events": processes * timeouts,
                "processes": processes,
                "timeouts": timeouts,
            },
            _sim_event_churn(processes * timeouts, processes, timeouts),
        ),
        scenario(
            "parallel_sweep_speedup",
            {
                "trials": 2 if smoke else 8,
                "blocks": 200 if smoke else 2000,
                "workers": 2,
            },
            _parallel_sweep_speedup(
                2 if smoke else 8, 200 if smoke else 2000, 2
            ),
        ),
        scenario(
            "degraded_read_decode",
            {
                "stripes": 2 if smoke else 4,
                "reads": 3 if smoke else 8,
                "scenario": "single_node_loss",
            },
            _degraded_read_decode(2 if smoke else 4, 3 if smoke else 8),
        ),
        scenario(
            "repair_storm_throughput",
            {"stripes": 2 if smoke else 4, "scenario": "rack_loss"},
            _repair_storm_throughput(2 if smoke else 4),
        ),
        scenario(
            "lint_whole_program",
            {
                "files": 6 if smoke else 40,
                "functions_per_file": 3 if smoke else 8,
            },
            _lint_whole_program(6 if smoke else 40, 3 if smoke else 8),
        ),
        scenario(
            "journal_append_throughput",
            {"records": journal_records, "segment_records": 256},
            _journal_append(journal_records, 256),
        ),
        scenario(
            "journal_replay",
            {"workload": "crash-drill"},
            _journal_replay(),
        ),
        scenario(
            "journal_checkpoint",
            {"workload": "crash-drill", "prune": True},
            _journal_checkpoint(),
        ),
    ]
