"""Measurement collectors for simulation experiments.

Small, dependency-free statistics helpers used by every experiment driver:
response-time distributions, throughput meters, time series (for the
"encoded stripes vs time" plots), and :class:`FaultMetrics`, the one
collector of the fault and recovery path.

Also hosts the process-wide :class:`PerfCounters` registry that the hot
paths (Dinic's max-flow, the GF(2^8) kernels, the simulation kernel, EAR's
redraw loop) report *counted work* into.  Counted work — level-graph
builds, augmentations, GF multiplies, processed events — is deterministic
for a given seed, so ``tests/bench/test_budgets.py`` asserts on it without
wall-clock flakiness and ``benchmarks/e2e`` reports it per layer.
"""

from __future__ import annotations

import math
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, List, Optional, Set, Tuple


class PerfCounters:
    """Process-wide additive counters for *counted work* on hot paths.

    Instrumented code calls :meth:`bump` with a dotted counter name
    (``"maxflow.bfs_builds"``, ``"gf.symbol_mults"``, ...).  Consumers take
    a :meth:`snapshot` before and after a region — or use the
    :func:`measure_ops` context manager — and read the delta.  Counts are
    pure functions of the work performed, never of the clock, so they are
    byte-reproducible across machines for a fixed seed.

    A single module-level instance, :data:`PERF`, is shared by the whole
    process; ``bump`` is a dict increment, cheap enough to leave enabled
    permanently.
    """

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        counts = self._counts
        counts[name] = counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        """Current value of ``name`` (0 when never bumped)."""
        return self._counts.get(name, 0)

    def snapshot(self) -> Dict[str, int]:
        """An immutable-by-copy view of every counter."""
        return dict(self._counts)

    def reset(self) -> None:
        """Zero every counter (test/bench isolation)."""
        self._counts.clear()

    @staticmethod
    def delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
        """Per-counter difference ``after - before``, dropping zero rows."""
        names = sorted(set(before) | set(after))
        out = {
            name: after.get(name, 0) - before.get(name, 0) for name in names
        }
        return {name: value for name, value in out.items() if value}


#: The process-wide counter registry used by every instrumented hot path.
PERF = PerfCounters()


class OpsDelta:
    """Mutable holder filled in when a :func:`measure_ops` block exits."""

    def __init__(self) -> None:
        self.ops: Dict[str, int] = {}

    def get(self, name: str) -> int:
        """Counted work for ``name`` inside the measured block."""
        return self.ops.get(name, 0)


@contextmanager
def measure_ops() -> Iterator[OpsDelta]:
    """Measure the counted work performed inside a ``with`` block.

    Example:
        >>> with measure_ops() as measured:
        ...     PERF.bump("example.widgets", 3)
        >>> measured.get("example.widgets")
        3
    """
    holder = OpsDelta()
    before = PERF.snapshot()
    try:
        yield holder
    finally:
        holder.ops = PerfCounters.delta(before, PERF.snapshot())


class _SampleBuffer:
    """Append-only float store backed by flat ``array('d')`` chunks.

    The hot path is a C-level ``array.append`` — no per-sample tuple or
    list-of-objects churn — and the chunking keeps growth from ever
    copying more than one bounded block.  Everything derived (sorting,
    means, percentiles) folds lazily at read time; iteration yields the
    samples in recording order.
    """

    __slots__ = ("_chunks", "_tail")

    #: Samples per sealed chunk (64 KiB of doubles).
    CHUNK = 8192

    def __init__(self) -> None:
        self._chunks: List[array] = []
        self._tail: array = array("d")

    def append(self, value: float) -> None:
        """Record one sample (O(1), no aggregation)."""
        tail = self._tail
        tail.append(value)
        if len(tail) >= self.CHUNK:
            self._chunks.append(tail)
            self._tail = array("d")

    def __len__(self) -> int:
        return len(self._chunks) * self.CHUNK + len(self._tail)

    def __iter__(self) -> Iterator[float]:
        for chunk in self._chunks:
            yield from chunk
        yield from self._tail


def _nearest_rank(ordered: List[float], p: float) -> float:
    """The ``p``-th percentile of an already-sorted sample (nearest-rank)."""
    if not ordered:
        raise ValueError("no samples recorded")
    if not 0 <= p <= 100:
        raise ValueError("percentile must lie in [0, 100]")
    rank = max(0, math.ceil(p / 100 * len(ordered)) - 1)
    return ordered[rank]


class ResponseTimeStats:
    """Collects request latencies and summarises them.

    Recording is an append into flat array chunks; means, percentiles
    and window filters fold at read time.  At 10^6+ requests per run the
    old list-of-tuples layout (one 2-tuple plus two boxed floats per
    sample) was a measurable share of the simulator's footprint.
    """

    __slots__ = ("_starts", "_latencies")

    def __init__(self) -> None:
        self._starts = _SampleBuffer()
        self._latencies = _SampleBuffer()

    def record(self, start_time: float, latency: float) -> None:
        """Record one request's start time and latency."""
        if latency < 0:
            raise ValueError("latency cannot be negative")
        self._starts.append(start_time)
        self._latencies.append(latency)

    @property
    def count(self) -> int:
        """Number of recorded requests."""
        return len(self._latencies)

    def latencies(self) -> List[float]:
        """All recorded latencies, in arrival order."""
        return list(self._latencies)

    def mean(self) -> float:
        """Mean latency.

        Raises:
            ValueError: With no samples.
        """
        count = len(self._latencies)
        if not count:
            raise ValueError("no samples recorded")
        return sum(self._latencies) / count

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile latency (nearest-rank)."""
        return _nearest_rank(sorted(self._latencies), p)

    def mean_in_window(self, start: float, end: float) -> Optional[float]:
        """Mean latency of requests that *started* inside [start, end)."""
        window = [
            lat
            for t, lat in zip(self._starts, self._latencies)
            if start <= t < end
        ]
        if not window:
            return None
        return sum(window) / len(window)

    def series(self) -> List[Tuple[float, float]]:
        """(start_time, latency) pairs in arrival order (Figure 9 style)."""
        return list(zip(self._starts, self._latencies))


class ThroughputMeter:
    """Tracks completed work volume over a measured interval."""

    def __init__(self) -> None:
        self._bytes = 0.0
        self._start: Optional[float] = None
        self._end: Optional[float] = None

    def start(self, now: float) -> None:
        """Mark the start of the measured interval."""
        self._start = now

    def record(self, now: float, size: float) -> None:
        """Account ``size`` bytes completed at time ``now``."""
        if size < 0:
            raise ValueError("size cannot be negative")
        self._bytes += size
        self._end = now

    @property
    def total_bytes(self) -> float:
        """Bytes accounted so far."""
        return self._bytes

    def elapsed(self) -> float:
        """Seconds between start and the last completion."""
        if self._start is None or self._end is None:
            raise ValueError("meter never started or never recorded")
        return max(self._end - self._start, 0.0)

    def throughput(self) -> float:
        """Mean throughput in bytes/second over the measured interval.

        Raises:
            ValueError: If no time elapsed (division by zero).
        """
        elapsed = self.elapsed()
        if elapsed == 0:
            raise ValueError("no elapsed time; cannot compute throughput")
        return self._bytes / elapsed

    def throughput_mb_s(self) -> float:
        """Throughput in MB/s (the unit of Figure 8)."""
        return self.throughput() / 1e6


@dataclass
class OutageWindow:
    """One down interval of a window's key (``end`` is ``None`` while open)."""

    target: Hashable
    start: float
    end: Optional[float] = None

    @property
    def duration(self) -> Optional[float]:
        """Length of the window, or ``None`` while it is open."""
        return None if self.end is None else self.end - self.start


@dataclass(frozen=True)
class DataLossEvent:
    """A block that could not be reconstructed from any source."""

    block_id: int
    time: float
    reason: str


#: Window kinds of :class:`FaultMetrics`, keyed by node/rack label,
#: block id and stripe label respectively.
OUTAGE = "outage"  # a chaos fault holds the target down
UNAVAILABLE = "unavailable"  # a block waits in the repair queue
MARGIN_ZERO = "margin_zero"  # one more failure loses the stripe's data

#: Counts mirrored into :data:`PERF` so ``benchmarks/e2e`` can report them.
_PERF_NAMES = {
    name: f"recovery.{name}"
    for name in ("repairs", "degraded_reads", "escalations",
                 "vulnerability_windows")
}


class FaultMetrics:
    """The fault and recovery path's one collector.

    A cluster shares one instance among every fault component: the retry
    loops (retries, aborts, stragglers), the repair queue (repair times
    and traffic, block-unavailability and margin-0 windows, data loss),
    the scrubber (detections), the chaos injector (outage windows,
    injected corruption, events per kind) and the degraded-read path
    (read modes, latency, bytes).  Each event is recorded once; the
    repair-direction traffic is what the Rashmi et al. study found to
    dominate cross-rack load in erasure-coded clusters.
    """

    def __init__(self) -> None:
        #: Event tallies by name; a name appears once first counted.
        self.counts: Dict[str, int] = {}
        self.repair_times = _SampleBuffer()
        self.degraded_read_latencies = _SampleBuffer()
        self.repair_bytes = 0.0
        self.cross_rack_repair_bytes = 0.0
        self.degraded_read_bytes = 0.0
        self.cross_rack_degraded_bytes = 0.0
        #: Racks that received reconstruction bytes.
        self.repair_racks: Set[int] = set()
        #: Every window of each kind, in open order.
        self.windows: Dict[str, List[OutageWindow]] = {
            OUTAGE: [], UNAVAILABLE: [], MARGIN_ZERO: [],
        }
        self._open: Dict[Tuple[str, Hashable], OutageWindow] = {}
        self.data_loss: List[DataLossEvent] = []
        #: The repr of each relocation's transient failure.
        self.relocation_failures: List[str] = []

    def count(self, name: str) -> None:
        """Tally one ``name`` event (``"retries"``, ``"normal_reads"``, ...)."""
        counts = self.counts
        counts[name] = counts.get(name, 0) + 1
        perf_name = _PERF_NAMES.get(name)
        if perf_name is not None:
            PERF.bump(perf_name)

    def record_storm_event(self, kind: str) -> None:
        """One fault event of ``kind`` fired during a drill."""
        self.count(f"storm_{kind}")

    def record_repair(self, duration: float) -> None:
        """One finished repair, its duration spanning every retry."""
        if duration < 0:
            raise ValueError("repair duration cannot be negative")
        self.repair_times.append(duration)
        self.count("repairs")

    def record_repair_traffic(
        self, dest_rack: Optional[int], bytes_read: float,
        cross_rack_bytes: float,
    ) -> None:
        """The reconstruction traffic of one successful repair attempt."""
        self.repair_bytes += bytes_read
        self.cross_rack_repair_bytes += cross_rack_bytes
        if dest_rack is not None and bytes_read:
            self.repair_racks.add(dest_rack)

    def record_degraded_read(
        self, latency: float, bytes_read: float, cross_rack_bytes: float
    ) -> None:
        """One read served by fetching k survivors and decoding inline."""
        self.count("degraded_reads")
        self.degraded_read_latencies.append(latency)
        self.degraded_read_bytes += bytes_read
        self.cross_rack_degraded_bytes += cross_rack_bytes

    def record_data_loss(self, block_id: int, now: float, reason: str) -> None:
        """An unrecoverable block: fewer than k sources survive anywhere."""
        self.data_loss.append(DataLossEvent(block_id, now, reason))
        self.count("data_loss")

    def record_relocation_failure(self, reason: str) -> None:
        """One relocation that failed transiently (re-found by a later scan)."""
        self.relocation_failures.append(reason)
        self.count("relocation_failures")

    def open_window(self, kind: str, key: Hashable, now: float) -> None:
        """Open a ``kind`` window for ``key``; ignored while one is open."""
        if (kind, key) in self._open:
            return
        window = OutageWindow(key, now)
        self._open[kind, key] = window
        self.windows[kind].append(window)
        if kind == MARGIN_ZERO:
            self.count("vulnerability_windows")

    def close_window(self, kind: str, key: Hashable, now: float) -> None:
        """Close ``key``'s open ``kind`` window, if any."""
        window = self._open.pop((kind, key), None)
        if window is not None:
            window.end = now

    def summary(self, now: Optional[float] = None) -> Dict[str, float]:
        """A flat, deterministic snapshot for tables and fingerprints.

        Margin-0 windows still open count up to ``now`` when given.
        ``mttr`` repeats ``repair_time_mean`` and ``corruption_detected``
        repeats ``scrub_detections``: fingerprints hash both names.
        """
        out: Dict[str, float] = dict(sorted(self.counts.items()))
        if "scrub_detections" in out:
            out["corruption_detected"] = out["scrub_detections"]
        ordered = sorted(self.repair_times)
        if ordered:
            # Summed in recording order, as every golden was.
            mean = sum(self.repair_times) / len(ordered)
            p50 = _nearest_rank(ordered, 50)
            p95 = _nearest_rank(ordered, 95)
            top = ordered[-1]
        else:
            mean = p50 = p95 = top = 0.0
        out["repair_time_count"] = float(len(ordered))
        out["repair_time_mean"] = mean
        out["repair_time_p50"] = p50
        out["repair_time_p95"] = p95
        out["repair_time_max"] = top
        out["repair_bytes"] = self.repair_bytes
        out["cross_rack_repair_bytes"] = self.cross_rack_repair_bytes
        out["degraded_read_bytes"] = self.degraded_read_bytes
        out["cross_rack_degraded_bytes"] = self.cross_rack_degraded_bytes
        latencies = self.degraded_read_latencies
        out["degraded_read_mean_latency"] = (
            sum(latencies) / len(latencies) if len(latencies) else 0.0
        )
        out["racks_receiving_repairs"] = float(len(self.repair_racks))
        at_margin_zero = 0.0
        for window in self.windows[MARGIN_ZERO]:
            if window.end is not None:
                at_margin_zero += window.end - window.start
            elif now is not None:
                at_margin_zero += max(0.0, now - window.start)
        out["time_at_margin_zero"] = at_margin_zero
        out["mttr"] = mean
        out["outages"] = float(len(self.windows[OUTAGE]))
        unavailable = self.windows[UNAVAILABLE]
        out["unavailability_windows"] = float(len(unavailable))
        closed = [w.duration for w in unavailable if w.end is not None]
        out["unavailability_total"] = float(sum(closed)) if closed else 0.0
        return out


class TimeSeries:
    """An event-time series, e.g. cumulative encoded stripes (Figure 12).

    Observations append into flat array chunks; the pair list the plots
    consume is materialised lazily by :attr:`points`.
    """

    __slots__ = ("_times", "_values")

    def __init__(self) -> None:
        self._times = _SampleBuffer()
        self._values = _SampleBuffer()

    @property
    def points(self) -> List[Tuple[float, float]]:
        """(time, value) pairs in recording order."""
        return list(zip(self._times, self._values))

    def record(self, time: float, value: float) -> None:
        """Append one (time, value) observation."""
        self._times.append(time)
        self._values.append(value)

    def __len__(self) -> int:
        return len(self._times)
