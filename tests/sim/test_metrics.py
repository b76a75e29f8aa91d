"""Metrics collectors: response times, throughput, series, fault metrics."""

import pytest

from repro.sim.metrics import (
    MARGIN_ZERO,
    OUTAGE,
    PERF,
    UNAVAILABLE,
    FaultMetrics,
    ResponseTimeStats,
    ThroughputMeter,
    TimeSeries,
    _SampleBuffer,
)


class TestResponseTimeStats:
    def test_mean(self):
        stats = ResponseTimeStats()
        for t, lat in [(0, 1.0), (1, 2.0), (2, 3.0)]:
            stats.record(t, lat)
        assert stats.mean() == 2.0
        assert stats.count == 3

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            ResponseTimeStats().mean()

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            ResponseTimeStats().record(0, -1)

    def test_percentile(self):
        stats = ResponseTimeStats()
        for i in range(1, 101):
            stats.record(i, float(i))
        assert stats.percentile(50) == 50.0
        assert stats.percentile(99) == 99.0
        assert stats.percentile(100) == 100.0

    def test_percentile_validation(self):
        stats = ResponseTimeStats()
        stats.record(0, 1.0)
        with pytest.raises(ValueError):
            stats.percentile(101)
        with pytest.raises(ValueError):
            ResponseTimeStats().percentile(50)

    def test_window_mean(self):
        stats = ResponseTimeStats()
        stats.record(1.0, 10.0)
        stats.record(5.0, 20.0)
        stats.record(9.0, 30.0)
        assert stats.mean_in_window(0.0, 6.0) == 15.0
        assert stats.mean_in_window(8.0, 100.0) == 30.0
        assert stats.mean_in_window(100.0, 200.0) is None

    def test_series_order(self):
        stats = ResponseTimeStats()
        stats.record(2.0, 1.0)
        stats.record(1.0, 9.0)
        assert stats.series() == [(2.0, 1.0), (1.0, 9.0)]


class TestThroughputMeter:
    def test_throughput(self):
        meter = ThroughputMeter()
        meter.start(10.0)
        meter.record(12.0, 100.0)
        meter.record(20.0, 100.0)
        assert meter.total_bytes == 200.0
        assert meter.elapsed() == 10.0
        assert meter.throughput() == 20.0
        assert meter.throughput_mb_s() == pytest.approx(20e-6)

    def test_unstarted_raises(self):
        with pytest.raises(ValueError):
            ThroughputMeter().elapsed()

    def test_zero_elapsed_raises(self):
        meter = ThroughputMeter()
        meter.start(5.0)
        meter.record(5.0, 10.0)
        with pytest.raises(ValueError):
            meter.throughput()

    def test_negative_size_rejected(self):
        meter = ThroughputMeter()
        meter.start(0.0)
        with pytest.raises(ValueError):
            meter.record(1.0, -1.0)


class TestTimeSeries:
    def test_len(self):
        series = TimeSeries()
        assert len(series) == 0
        series.record(0.0, 1)
        assert len(series) == 1

    def test_points_property_is_lazy_snapshot(self):
        series = TimeSeries()
        series.record(1.0, 10)
        assert series.points == [(1.0, 10)]
        series.record(2.0, 20)
        assert series.points == [(1.0, 10), (2.0, 20)]


class TestSampleBuffer:
    def test_append_and_iterate_across_chunk_seals(self):
        buffer = _SampleBuffer()
        count = _SampleBuffer.CHUNK * 2 + 17
        for index in range(count):
            buffer.append(float(index))
        assert len(buffer) == count
        assert list(buffer) == [float(index) for index in range(count)]

    def test_empty(self):
        buffer = _SampleBuffer()
        assert len(buffer) == 0
        assert list(buffer) == []


#: FaultMetrics().summary() keys with nothing recorded.  Storm
#: fingerprints hash these names, so the list must not drift.
EMPTY_SUMMARY_KEYS = [
    "cross_rack_degraded_bytes", "cross_rack_repair_bytes",
    "degraded_read_bytes", "degraded_read_mean_latency", "mttr", "outages",
    "racks_receiving_repairs", "repair_bytes", "repair_time_count",
    "repair_time_max", "repair_time_mean", "repair_time_p50",
    "repair_time_p95", "time_at_margin_zero", "unavailability_total",
    "unavailability_windows",
]

#: summary(now=5.0) after one call of every record method.  Values are
#: reprs because fingerprints hash reprs: an int count must stay an int.
FULL_SUMMARY = {
    "aborts": "1", "corruption_detected": "1", "corruption_injected": "1",
    "cross_rack_degraded_bytes": "5.0", "cross_rack_repair_bytes": "5.0",
    "data_loss": "1", "degraded_read_bytes": "10.0",
    "degraded_read_mean_latency": "1.0", "degraded_reads": "1",
    "escalations": "1", "mttr": "2.0", "normal_reads": "1",
    "outages": "1.0", "racks_receiving_repairs": "1.0",
    "relocation_failures": "1", "repair_bytes": "10.0",
    "repair_time_count": "1.0", "repair_time_max": "2.0",
    "repair_time_mean": "2.0", "repair_time_p50": "2.0",
    "repair_time_p95": "2.0", "repairs": "1", "retries": "1",
    "scrub_detections": "1", "storm_node_flap": "1", "stragglers": "1",
    "time_at_margin_zero": "1.0", "unavailability_total": "2.0",
    "unavailability_windows": "1.0", "vulnerability_windows": "1",
}

#: Every name the fault components tally through FaultMetrics.count.
COUNTED = (
    "retries", "aborts", "stragglers", "scrub_detections",
    "corruption_injected", "normal_reads", "escalations",
)


def record_everything(metrics: FaultMetrics) -> None:
    for name in COUNTED:
        metrics.count(name)
    metrics.record_storm_event("node_flap")
    metrics.record_repair(2.0)
    metrics.record_repair_traffic(1, 10.0, 5.0)
    metrics.record_degraded_read(1.0, 10.0, 5.0)
    metrics.record_data_loss(4, 1.0, "r")
    metrics.record_relocation_failure("x")
    for kind, key, end in (
        (OUTAGE, "node 1", 1.0), (UNAVAILABLE, 3, 2.0),
        (MARGIN_ZERO, "stripe:1", 1.0),
    ):
        metrics.open_window(kind, key, 0.0)
        metrics.close_window(kind, key, end)


class TestFaultMetrics:
    def test_empty_summary_keys(self):
        summary = FaultMetrics().summary(now=5.0)
        assert sorted(summary) == EMPTY_SUMMARY_KEYS
        assert set(summary.values()) == {0.0}

    def test_summary_after_every_record_method(self):
        metrics = FaultMetrics()
        record_everything(metrics)
        summary = metrics.summary(now=5.0)
        assert {k: repr(v) for k, v in summary.items()} == FULL_SUMMARY

    def test_alias_pairs_stay_equal(self):
        metrics = FaultMetrics()
        record_everything(metrics)
        metrics.record_repair(4.0)
        metrics.count("scrub_detections")
        summary = metrics.summary()
        assert summary["mttr"] == summary["repair_time_mean"] == 3.0
        assert summary["corruption_detected"] == summary[
            "scrub_detections"
        ] == 2
        assert summary["repairs"] == summary["repair_time_count"] == 2

    def test_count_tallies_by_name(self):
        metrics = FaultMetrics()
        metrics.count("retries")
        metrics.count("retries")
        assert metrics.counts == {"retries": 2}

    def test_summary_is_a_snapshot(self):
        metrics = FaultMetrics()
        metrics.count("aborts")
        snap = metrics.summary()
        metrics.count("aborts")
        assert snap["aborts"] == 1
        assert metrics.summary()["aborts"] == 2

    def test_repair_counts_feed_perf(self):
        before = PERF.get("recovery.repairs")
        FaultMetrics().record_repair(1.0)
        assert PERF.get("recovery.repairs") == before + 1

    def test_repair_time_mean_and_percentiles(self):
        metrics = FaultMetrics()
        for value in (1.0, 2.0, 3.0, 4.0, 5.0):
            metrics.record_repair(value)
        summary = metrics.summary()
        assert summary["repair_time_count"] == 5.0
        assert summary["repair_time_mean"] == 3.0
        assert summary["repair_time_p50"] == 3.0
        assert summary["repair_time_max"] == 5.0

    def test_repair_time_distribution(self):
        metrics = FaultMetrics()
        for value in range(100, 0, -1):
            metrics.record_repair(float(value))
        summary = metrics.summary()
        assert summary["repair_time_count"] == 100.0
        assert summary["repair_time_mean"] == 50.5
        assert summary["repair_time_p50"] == 50.0
        assert summary["repair_time_p95"] == 95.0
        assert summary["repair_time_max"] == 100.0

    def test_negative_repair_duration_rejected(self):
        with pytest.raises(ValueError):
            FaultMetrics().record_repair(-1.0)

    def test_large_repair_population_stays_exact(self):
        # Enough samples to seal several chunks: the mean sums in
        # recording order, exactly as a plain list would.
        metrics = FaultMetrics()
        values = [((index * 2654435761) % 1000) / 7.0 for index in range(20_000)]
        for value in values:
            metrics.record_repair(value)
        summary = metrics.summary()
        assert summary["repair_time_mean"] == sum(values) / len(values)
        assert summary["repair_time_p95"] == sorted(values)[
            max(0, -(-95 * len(values) // 100) - 1)
        ]

    def test_window_reopens_only_after_close(self):
        metrics = FaultMetrics()
        metrics.open_window(UNAVAILABLE, 7, 0.0)
        metrics.open_window(UNAVAILABLE, 7, 1.0)  # already open: ignored
        metrics.close_window(UNAVAILABLE, 7, 2.0)
        metrics.close_window(UNAVAILABLE, 7, 3.0)  # nothing open: ignored
        metrics.open_window(UNAVAILABLE, 7, 4.0)
        spans = [(w.start, w.end) for w in metrics.windows[UNAVAILABLE]]
        assert spans == [(0.0, 2.0), (4.0, None)]

    def test_open_margin_zero_counts_up_to_now(self):
        metrics = FaultMetrics()
        metrics.open_window(MARGIN_ZERO, "stripe:1", 2.0)
        assert metrics.summary()["time_at_margin_zero"] == 0.0
        assert metrics.summary(now=5.0)["time_at_margin_zero"] == 3.0
        assert metrics.counts["vulnerability_windows"] == 1
