"""Layer spans for the traced pass, recorded from outside ``repro``.

The traced pass replaces each public entry point named in ``SPANS`` with a
timing wrapper (and puts the original back afterwards); nothing in ``src/``
knows it is being traced.  Plain functions get one span per call.  Generator
entry points (simulation processes driven through ``yield from``) get one
span per *resume*: the clock runs from the moment the kernel sends into the
generator until it yields again, so simulated waiting never counts as host
time.

Spans are folded as they close into call-tree edges
``(parent span, span) -> [resumes, total seconds, self seconds]`` — the
parent link is the edge — and kept in memory until the run writes its
results.  A span's self time is its duration minus the durations of the
spans that ran inside it, so the self times of all edges add up to exactly
the time spent under any wrapped entry point.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

#: Parent name of spans opened while no other span is open.
ROOT = "<pass>"

#: span name -> (how to wrap, ((module, class or None, attribute), ...)).
#: A class of ``None`` means a module-level function; those are also
#: rebound in every module listed, because ``from x import f`` copies.
SPANS: Dict[str, Tuple[str, Tuple[Tuple[str, Any, str], ...]]] = {
    "core.place_ear": ("call", (
        ("repro.core.ear", "EncodingAwareReplication", "place_block"),
    )),
    "core.place_rr": ("call", (
        ("repro.core.random_replication", "RandomReplication", "place_block"),
    )),
    "core.plan": ("call", (
        ("repro.core.parity", "EARPlanner", "plan"),
        ("repro.core.parity", "RRPlanner", "plan"),
    )),
    "core.relocate": ("call", (
        ("repro.core.relocation", "BlockMover", "repair"),
    )),
    "core.monitor": ("call", (
        ("repro.core.relocation", "PlacementMonitor", "is_violating"),
    )),
    "sim.run": ("call", (
        ("repro.sim.engine", "Simulator", "run"),
    )),
    "netsim.transfer": ("resume", (
        ("repro.sim.netsim", "Network", "transfer"),
    )),
    "netsim.disk": ("resume", (
        ("repro.sim.netsim", "Network", "disk_read"),
        ("repro.sim.netsim", "Network", "disk_write"),
    )),
    "hdfs.namenode": ("call", (
        ("repro.hdfs.namenode", "NameNode", "allocate_block"),
        ("repro.hdfs.namenode", "NameNode", "record_encoding"),
    )),
    "hdfs.client": ("resume", (
        ("repro.hdfs.client", "CFSClient", "write_block"),
        ("repro.hdfs.client", "CFSClient", "read_block"),
    )),
    "hdfs.encoder": ("resume", (
        ("repro.hdfs.encoder", "StripeEncoder", "encode_stripe"),
    )),
    "hdfs.mapreduce": ("resume", (
        ("repro.hdfs.mapreduce", "JobTracker", "run_job"),
    )),
    "erasure.encode": ("call", (
        ("repro.erasure.stream", None, "stream_encode"),
    )),
    "erasure.decode": ("call", (
        ("repro.erasure.stream", None, "stream_decode"),
    )),
    "erasure.repair": ("call", (
        ("repro.erasure.stream", None, "stream_repair"),
    )),
    "erasure.plane": ("call", (
        ("repro.erasure.stream", "StreamingDataPlane", "encode_stripe"),
        ("repro.erasure.stream", "StreamingDataPlane", "verify_stripe"),
    )),
    "pipeline.fold": ("call", (
        ("repro.pipeline.gfstream", None, "pipelined_parity"),
        ("repro.pipeline.encoder", None, "pipelined_parity"),
    )),
    "pipeline.encoder": ("resume", (
        ("repro.pipeline.encoder", "PipelinedEncoder", "encode_stripe"),
    )),
    # The queue's worker processes are private generators started by its
    # constructor; they are the only non-public names wrapped, because the
    # repair work runs nowhere else.
    "faults.repair_queue": ("resume", (
        ("repro.faults.repair", "RepairQueue", "_run"),
        ("repro.faults.repair", "RepairQueue", "_repair_and_finish"),
    )),
    "faults.enqueue": ("call", (
        ("repro.faults.repair", "RepairQueue", "enqueue"),
    )),
    "faults.scrub": ("call", (
        ("repro.faults.scrubber", "Scrubber", "scan_once"),
    )),
    "recovery.degraded_read": ("resume", (
        ("repro.recovery.degraded", "DegradedReadPath", "read_block"),
    )),
    "journal.append": ("call", (
        ("repro.journal.journal", "MetadataJournal", "append"),
        ("repro.journal.journal", "MetadataJournal", "flush"),
    )),
    "journal.replay": ("call", (
        ("repro.journal.recovery", None, "recover"),
    )),
    "parallel.map_trials": ("call", (
        ("repro.parallel.executor", "SweepExecutor", "map_trials"),
    )),
    "parallel.trial": ("call", (
        ("repro.parallel.spec", "TrialSpec", "run"),
    )),
}

#: Layers in report order, and the span-name prefixes that belong to each.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("core", ("core.",)),
    ("sim.engine", ("sim.",)),
    ("sim.netsim", ("netsim.",)),
    ("hdfs", ("hdfs.",)),
    ("erasure", ("erasure.",)),
    ("pipeline", ("pipeline.",)),
    ("faults", ("faults.", "recovery.")),
    ("journal", ("journal.",)),
    ("parallel", ("parallel.",)),
)


def layer_of(span: str) -> str:
    """The layer a span name belongs to."""
    for layer, prefixes in LAYERS:
        if span.startswith(prefixes):
            return layer
    raise KeyError(f"span {span!r} belongs to no layer")


class Tracer:
    """Installs the wrappers, folds spans into edges, removes the wrappers.

    Use as a context manager around the traced passes; ``edges``, ``calls``
    and ``transfer_stats`` then hold what those passes did.
    """

    def __init__(self) -> None:
        #: (parent span, span) -> [resumes, total seconds, self seconds]
        self.edges: Dict[Tuple[str, str], List[float]] = {}
        #: span -> calls (a generator counts once however often it resumes)
        self.calls: Dict[str, int] = {}
        #: ``Network.stats`` of every network built while installed
        self.transfer_stats: List[Any] = []
        self._stack: List[List[Any]] = []
        self._originals: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def __enter__(self) -> "Tracer":
        for span, (how, targets) in SPANS.items():
            wrap = self._wrap_call if how == "call" else self._wrap_resume
            for module_name, class_name, attribute in targets:
                owner = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
                original = owner.__dict__[attribute]
                self._replace(owner, attribute, wrap(span, original))
        network = importlib.import_module("repro.sim.netsim").Network
        self._replace(
            network, "__init__", self._collect_stats(network.__init__)
        )
        return self

    def __exit__(self, *exc_info: Any) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def _replace(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._originals.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def reset(self) -> None:
        """Forget everything recorded so far (between traced passes)."""
        self.edges.clear()
        self.calls.clear()
        self.transfer_stats.clear()

    # ------------------------------------------------------------------
    # Span bookkeeping (the hot path: two clock reads per span)
    # ------------------------------------------------------------------
    def _enter(self, span: str) -> None:
        self._stack.append([span, perf_counter(), 0.0])

    def _leave(self) -> None:
        end = perf_counter()
        stack = self._stack
        span, start, inside = stack.pop()
        duration = end - start
        if stack:
            parent = stack[-1]
            parent[2] += duration
            key = (parent[0], span)
        else:
            key = (ROOT, span)
        edge = self.edges.get(key)
        if edge is None:
            self.edges[key] = [1, duration, duration - inside]
        else:
            edge[0] += 1
            edge[1] += duration
            edge[2] += duration - inside

    def _wrap_call(self, span: str, function: Callable) -> Callable:
        enter, leave, calls = self._enter, self._leave, self.calls

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            calls[span] = calls.get(span, 0) + 1
            enter(span)
            try:
                return function(*args, **kwargs)
            finally:
                leave()

        return traced

    def _wrap_resume(self, span: str, function: Callable) -> Callable:
        enter, leave, calls = self._enter, self._leave, self.calls

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            calls[span] = calls.get(span, 0) + 1
            inner = function(*args, **kwargs)
            enter(span)
            try:
                value = next(inner)
            except StopIteration as stop:
                return stop.value
            finally:
                leave()
            while True:
                try:
                    sent = yield value
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as thrown:  # forwarded, never handled
                    enter(span)
                    try:
                        value = inner.throw(thrown)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        leave()
                else:
                    enter(span)
                    try:
                        value = inner.send(sent)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        leave()

        return traced

    def _collect_stats(self, init: Callable) -> Callable:
        collected = self.transfer_stats

        @functools.wraps(init)
        def traced(network: Any, *args: Any, **kwargs: Any) -> None:
            init(network, *args, **kwargs)
            collected.append(network.stats)

        return traced

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def span_total(self, *spans: str) -> float:
        """Seconds inside the named spans, nested spans included.

        A span nested inside another of the *same* name (``flush`` inside
        ``append``) is counted once, through its parent.
        """
        return sum(
            edge[1]
            for (parent, span), edge in self.edges.items()
            if span in spans and parent not in spans
        )

    def span_self(self, *spans: str) -> float:
        """Seconds inside the named spans and in no span nested in them."""
        return sum(
            edge[2] for (__, span), edge in self.edges.items() if span in spans
        )

    def layer_self(self) -> Dict[str, float]:
        """Self seconds per layer; their sum is all time under any span."""
        totals = {layer: 0.0 for layer, __ in LAYERS}
        for (__, span), edge in self.edges.items():
            totals[layer_of(span)] += edge[2]
        return totals

    def edge_table(self) -> List[Dict[str, Any]]:
        """The call tree, one row per edge, heaviest self time first."""
        rows = [
            {
                "parent": parent,
                "span": span,
                "resumes": int(edge[0]),
                "total_s": edge[1],
                "self_s": edge[2],
            }
            for (parent, span), edge in self.edges.items()
        ]
        rows.sort(key=lambda row: (-row["self_s"], row["parent"], row["span"]))
        return rows
