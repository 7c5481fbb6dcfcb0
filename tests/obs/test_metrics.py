"""Unit tests for counters, histogram bucketing, and the registry."""

import json

import pytest

from repro.obs import DEFAULT_LATENCY_BUCKETS, Histogram, MetricsRegistry, RingBuffer


class TestHistogramBucketing:
    def test_bucket_assignment_at_and_between_bounds(self):
        histogram = Histogram("h", bounds=(0.001, 0.01, 0.1))
        histogram.observe(0.001)   # == bound: first bucket (le semantics)
        histogram.observe(0.0005)  # below first bound
        histogram.observe(0.05)    # third bucket
        histogram.observe(5.0)     # overflow
        assert histogram.bucket_counts == [2, 0, 1, 1]
        assert histogram.count == 4

    def test_min_max_mean_tracked_exactly(self):
        histogram = Histogram("h")
        for value in (0.002, 0.004, 0.006):
            histogram.observe(value)
        assert histogram.min == 0.002
        assert histogram.max == 0.006
        assert histogram.mean == pytest.approx(0.004)

    def test_quantiles_interpolate_within_bucket(self):
        histogram = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for value in (1.2, 1.4, 1.6, 1.8):  # all in the (1, 2] bucket
            histogram.observe(value)
        p50 = histogram.quantile(0.5)
        assert 1.2 <= p50 <= 1.8  # inside the bucket, clamped to observed

    def test_quantile_overflow_bucket_reports_observed_max(self):
        histogram = Histogram("h", bounds=(0.001,))
        histogram.observe(7.5)
        assert histogram.quantile(0.99) == 7.5

    def test_quantile_empty_histogram_is_none(self):
        histogram = Histogram("h")
        assert histogram.quantile(0.5) is None
        assert histogram.mean is None

    def test_quantile_rejects_out_of_range(self):
        histogram = Histogram("h")
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_bounds_must_be_sorted(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(0.1, 0.01))

    def test_to_dict_exports_per_bucket_counts(self):
        histogram = Histogram("h", bounds=(0.01, 0.1))
        histogram.observe(0.05)
        data = histogram.to_dict()
        assert data["buckets"] == [
            {"le": 0.01, "count": 0},
            {"le": 0.1, "count": 1},
            {"le": None, "count": 0},
        ]

    def test_default_buckets_span_sub_ms_to_multi_second(self):
        assert DEFAULT_LATENCY_BUCKETS[0] <= 0.0005
        assert DEFAULT_LATENCY_BUCKETS[-1] >= 10.0


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.inc("proxy.timeouts")
        registry.inc("proxy.timeouts", 2)
        assert registry.counters["proxy.timeouts"].value == 3

    def test_histograms_accumulate(self):
        registry = MetricsRegistry()
        registry.observe("phase.bind", 0.002)
        registry.observe("phase.bind", 0.004)
        assert registry.histograms["phase.bind"].count == 2

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.inc("x")
        registry.observe("y", 1.0)
        assert registry.counters == {}
        assert registry.histograms == {}

    def test_negative_increment_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.inc("x", -1)
        registry.inc("x")  # ...and on the existing-counter path too
        with pytest.raises(ValueError):
            registry.inc("x", -1)
        assert registry.counters["x"].value == 1

    def test_snapshot_and_json_roundtrip(self):
        registry = MetricsRegistry()
        registry.inc("a", 5)
        registry.observe("lat", 0.003)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"a": 5}
        assert snapshot["histograms"]["lat"]["count"] == 1
        parsed = json.loads(registry.to_json())
        assert parsed["counters"]["a"] == 5
        assert parsed["histograms"]["lat"]["buckets"][-1]["le"] is None

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.observe("b", 1.0)
        registry.record("c", 1.0)
        registry.reset()
        assert registry.counters == {} and registry.histograms == {}
        assert registry.rings == {}


class TestRingBuffer:
    def test_window_before_wraparound_is_insertion_order(self):
        ring = RingBuffer("r", capacity=4)
        for value in (1.0, 2.0, 3.0):
            ring.record(value)
        assert ring.window() == [1.0, 2.0, 3.0]
        assert ring.count == 3

    def test_wraparound_overwrites_oldest(self):
        ring = RingBuffer("r", capacity=3)
        for value in (1.0, 2.0, 3.0, 4.0, 5.0):
            ring.record(value)
        assert ring.window() == [3.0, 4.0, 5.0]
        assert ring.count == 5           # lifetime count survives eviction
        assert ring.total == 15.0        # lifetime sum too

    def test_snapshot_exact_over_window_only(self):
        ring = RingBuffer("r", capacity=2)
        for value in (100.0, 1.0, 3.0):  # 100.0 evicted
            ring.record(value)
        stats = ring.snapshot()
        assert stats["window"] == 2
        assert stats["count"] == 3
        assert stats["min"] == 1.0 and stats["max"] == 3.0
        assert stats["mean"] == pytest.approx(2.0)

    def test_empty_snapshot_is_all_none(self):
        stats = RingBuffer("r", capacity=8).snapshot()
        assert stats["count"] == 0 and stats["mean"] is None

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            RingBuffer("r", capacity=0)

    def test_registry_record_creates_and_reuses_ring(self):
        registry = MetricsRegistry()
        registry.record("lat", 1.0, capacity=4)
        registry.record("lat", 2.0, capacity=4)
        assert registry.ring("lat").window() == [1.0, 2.0]
        snapshot = registry.snapshot()
        assert snapshot["rings"]["lat"]["window"] == 2

    def test_disabled_registry_record_is_noop(self):
        registry = MetricsRegistry(enabled=False)
        registry.record("lat", 1.0)
        assert registry.rings == {}
