"""Unit tests for the telemetry metric primitives, registry, exporters,
and span tracer."""

import json
import math

import pytest
from hypothesis import given, strategies as st

from repro.telemetry.export import (
    snapshot_from_json,
    snapshot_to_csv,
    snapshot_to_json,
    write_snapshot,
)
from repro.telemetry.metrics import Counter, Gauge, Histogram
from repro.telemetry.registry import MetricsRegistry, merge_snapshots
from repro.telemetry.spans import NULL_TRACER, SpanTracer


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_fractional_amounts_accumulate(self):
        counter = Counter("airtime")
        counter.inc(0.25)
        counter.inc(0.5)
        assert counter.value == pytest.approx(0.75)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)


class TestGauge:
    def test_tracks_value_and_high_water_mark(self):
        gauge = Gauge("heap")
        gauge.set(10)
        gauge.set(3)
        assert gauge.value == 3
        assert gauge.max_value == 10


class TestHistogram:
    def test_summary_statistics(self):
        hist = Histogram("lat", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(555.5)
        assert hist.min == 0.5
        assert hist.max == 500.0
        assert hist.mean == pytest.approx(138.875)

    def test_bucket_counts_are_non_cumulative_per_bound(self):
        hist = Histogram("lat", buckets=(1.0, 10.0))
        for value in (0.1, 0.9, 5.0, 99.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["buckets"]["1.0"] == 2
        assert snap["buckets"]["10.0"] == 1
        assert snap["buckets"]["+inf"] == 1

    def test_empty_histogram_snapshot(self):
        snap = Histogram("lat", buckets=(1.0,)).snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None and snap["max"] is None

    def test_rejects_empty_buckets(self):
        with pytest.raises(ValueError):
            Histogram("lat", buckets=())


def _linear_bucket(bounds, value):
    """Reference bucket choice: the first bound with ``value <= bound``."""
    for index, bound in enumerate(bounds):
        if value <= bound:
            return index
    return len(bounds)


def _reference_counts(bounds, values):
    counts = [0] * (len(bounds) + 1)
    for value in values:
        counts[_linear_bucket(bounds, value)] += 1
    return counts


class TestHistogramBucketParity:
    """``observe`` bisects; it must bucket exactly like a linear scan."""

    EDGE_VALUES = (
        -math.inf, -1.0, 0.0, 1e-9, 1e-6, 5e-4, 1e-3, 1.0, 10.0,
        999.0, 1e3, 1e3 + 1e-9, 1e6, math.inf, math.nan,
    )

    def _observe_all(self, bounds, values):
        hist = Histogram("h", buckets=bounds)
        for value in values:
            hist.observe(value)
        return hist

    def test_default_bounds_edges(self):
        hist = self._observe_all(None, self.EDGE_VALUES)
        assert hist.bucket_counts == _reference_counts(hist.bounds, self.EDGE_VALUES)

    def test_exact_bounds_land_in_their_own_bucket(self):
        hist = Histogram("h")
        for index, bound in enumerate(hist.bounds):
            before = list(hist.bucket_counts)
            hist.observe(bound)
            assert hist.bucket_counts[index] == before[index] + 1

    def test_nan_and_inf_overflow(self):
        hist = self._observe_all((10.0, 16.0), (math.nan, math.inf))
        assert hist.bucket_counts == [0, 0, 2]

    def test_negative_infinity_first_bucket(self):
        hist = self._observe_all((10.0, 16.0), (-math.inf,))
        assert hist.bucket_counts == [1, 0, 0]

    def test_infinite_bound_catches_infinity(self):
        hist = self._observe_all((1.0, math.inf), (math.inf, math.nan))
        assert hist.bucket_counts == [0, 1, 1]

    @given(
        st.lists(st.floats(allow_nan=False), min_size=1, max_size=8),
        st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40),
    )
    def test_matches_linear_scan(self, bounds, values):
        hist = self._observe_all(bounds, values)
        assert hist.bucket_counts == _reference_counts(hist.bounds, values)


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_name_collisions_across_kinds_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_snapshot_shape_and_sorted_keys(self):
        registry = MetricsRegistry()
        registry.counter("z.count").inc(3)
        registry.counter("a.count").inc(1)
        registry.gauge("depth").set(7)
        registry.histogram("lat", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a.count", "z.count"]
        assert snap["counters"]["z.count"] == 3
        assert snap["gauges"]["depth"] == {"value": 7, "max": 7}
        assert snap["histograms"]["lat"]["count"] == 1

    def test_len_and_names(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.gauge("b")
        registry.histogram("c")
        assert len(registry) == 3
        assert registry.names() == ["a", "b", "c"]


class TestMerge:
    def _snap(self, count, gauge_max, hist_values):
        registry = MetricsRegistry()
        registry.counter("frames").inc(count)
        gauge = registry.gauge("depth")
        gauge.set(gauge_max)
        hist = registry.histogram("lat", buckets=(1.0, 10.0))
        for value in hist_values:
            hist.observe(value)
        return registry.snapshot()

    def test_counters_sum_gauges_max_histograms_widen(self):
        merged = merge_snapshots(
            [self._snap(3, 5, [0.5]), self._snap(4, 2, [20.0])]
        )
        assert merged["counters"]["frames"] == 7
        assert merged["gauges"]["depth"]["max"] == 5
        assert merged["gauges"]["depth"]["value"] == 2  # last write wins
        hist = merged["histograms"]["lat"]
        assert hist["count"] == 2
        assert hist["min"] == 0.5 and hist["max"] == 20.0
        assert hist["buckets"]["1.0"] == 1 and hist["buckets"]["+inf"] == 1

    def test_exclude_filters_by_name(self):
        registry = MetricsRegistry()
        registry.counter("engine.run.wall_time_s").inc(1.5)
        registry.counter("engine.events.executed").inc(10)
        merged = merge_snapshots(
            [registry.snapshot()], exclude=lambda name: "wall_time" in name
        )
        assert "engine.run.wall_time_s" not in merged["counters"]
        assert merged["counters"]["engine.events.executed"] == 10

    def test_merge_of_disjoint_snapshots_keeps_sorted_keys(self):
        a = MetricsRegistry()
        a.counter("zeta").inc(1)
        b = MetricsRegistry()
        b.counter("alpha").inc(1)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert list(merged["counters"]) == ["alpha", "zeta"]


class TestExporters:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("frames").inc(12)
        registry.gauge("depth").set(4)
        registry.histogram("lat", buckets=(1.0, 10.0)).observe(3.0)
        return registry

    def test_json_round_trip(self):
        snap = self._registry().snapshot()
        assert snapshot_from_json(snapshot_to_json(snap)) == snap

    def test_json_is_byte_stable(self):
        registry = self._registry()
        assert registry.to_json() == registry.to_json()

    def test_csv_contains_all_metrics(self):
        text = self._registry().to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "metric,field,value"
        assert "frames,count,12" in text
        assert "depth,value,4" in text
        assert "lat,count,1" in text
        assert "lat,bucket<=10.0,1" in text

    def test_write_snapshot_json_and_csv(self, tmp_path):
        snap = self._registry().snapshot()
        json_path = write_snapshot(snap, tmp_path / "m.json")
        csv_path = write_snapshot(snap, tmp_path / "m.csv")
        assert snapshot_from_json(json_path.read_text()) == snap
        assert csv_path.read_text().startswith("metric,field,value")


class TestSpans:
    def test_records_duration_and_nesting(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [r.name for r in tracer.records] == ["inner", "outer"]
        by_name = {r.name: r for r in tracer.records}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        assert by_name["outer"].duration_s >= by_name["inner"].duration_s >= 0.0

    def test_totals_aggregates_by_name(self):
        tracer = SpanTracer()
        for _ in range(3):
            with tracer.span("phase"):
                pass
        totals = tracer.totals()
        assert totals["phase"]["count"] == 3
        assert totals["phase"]["total_s"] >= 0.0

    def test_disabled_tracer_records_nothing(self):
        tracer = SpanTracer(enabled=False)
        with tracer.span("ignored"):
            pass
        assert tracer.records == []
        # The disabled path hands back one shared no-op object.
        assert tracer.span("a") is tracer.span("b") is NULL_TRACER.span("c")

    def test_report_renders_tree(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        report = tracer.report()
        assert "outer" in report and "  inner" in report and "ms" in report
        tracer.reset()
        assert tracer.report() == "(no spans recorded)"
