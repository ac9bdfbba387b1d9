"""Unit tests for repro.obs.metrics (counters, gauges, histograms,
registry, Prometheus/JSON export)."""

from __future__ import annotations

import math

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_WORK_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter()
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative_increments(self):
        c = Counter()
        with pytest.raises(ValueError):
            c.inc(-1.0)
        assert c.value == 0.0


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge()
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value == 12.0


class TestHistogram:
    def test_observe_tracks_count_sum_min_max(self):
        h = Histogram(buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            h.observe(value)
        assert h.count == 4
        assert h.sum == pytest.approx(555.5)
        assert h.min == 0.5
        assert h.max == 500.0
        assert h.bucket_counts == [1, 1, 1]
        assert h.inf_count == 1

    def test_boundary_goes_to_le_bucket(self):
        # Prometheus le semantics: an observation equal to a bound
        # belongs in that bound's bucket.
        h = Histogram(buckets=(1.0, 10.0))
        h.observe(1.0)
        assert h.bucket_counts == [1, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram(buckets=())
        with pytest.raises(ValueError):
            Histogram(buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, 1.0))
        # a trailing +Inf is folded into the implicit bucket
        h = Histogram(buckets=(1.0, math.inf))
        assert h.bounds == (1.0,)

    def test_quantile_empty_is_nan(self):
        h = Histogram()
        assert math.isnan(h.quantile(0.5))
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_quantile_interpolates_and_clamps(self):
        h = Histogram(buckets=(10.0, 20.0, 30.0))
        for value in (1.0, 12.0, 14.0, 25.0):
            h.observe(value)
        # p100 never exceeds the observed max, p0 never undershoots min
        assert h.quantile(1.0) == 25.0
        assert h.quantile(0.0) >= 0.0
        # quantiles are monotone in q
        qs = [h.quantile(q / 10) for q in range(11)]
        assert qs == sorted(qs)

    def test_summary_empty_is_zeros(self):
        empty = Histogram().summary()
        assert empty == {"count": 0.0, "sum": 0.0, "mean": 0.0,
                         "p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_summary_populated(self):
        h = Histogram(buckets=DEFAULT_WORK_BUCKETS)
        for value in (10.0, 20.0, 30.0, 40.0):
            h.observe(value)
        summary = h.summary()
        assert summary["count"] == 4.0
        assert summary["mean"] == pytest.approx(25.0)
        assert 0.0 < summary["p50"] <= summary["p95"] <= summary["p99"] <= 40.0


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("requests_total", "help")
        b = reg.counter("requests_total")
        assert a is b
        assert len(reg) == 1

    def test_labeled_children_are_distinct_but_order_insensitive(self):
        reg = MetricsRegistry()
        a = reg.counter("ops_total", labels={"kind": "nwc", "mode": "py"})
        b = reg.counter("ops_total", labels={"mode": "py", "kind": "nwc"})
        c = reg.counter("ops_total", labels={"kind": "knwc", "mode": "py"})
        assert a is b
        assert a is not c

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x_total")

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        for bad in ("", "has space", "has-dash", "1starts_with_digit"):
            with pytest.raises(ValueError):
                reg.counter(bad)

    def test_histogram_buckets_respected(self):
        reg = MetricsRegistry()
        h = reg.histogram("work", buckets=(1.0, 2.0))
        assert h.bounds == (1.0, 2.0)

    def test_time_context_manager_observes(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency_seconds")
        with reg.time(h):
            pass
        assert h.count == 1
        assert h.sum >= 0.0


class TestExport:
    def test_dump_metrics_golden(self):
        """The Prometheus text output is deterministic for a given state."""
        reg = MetricsRegistry()
        reg.counter("queries_total", "Queries answered",
                    labels={"kind": "nwc"}).inc(3)
        reg.counter("queries_total", labels={"kind": "knwc"}).inc()
        reg.gauge("pool_pages", "Cached pages").set(7)
        h = reg.histogram("work", "Node accesses", buckets=(10.0, 100.0))
        h.observe(5.0)
        h.observe(50.0)
        h.observe(500.0)
        assert reg.dump_metrics() == (
            "# HELP pool_pages Cached pages\n"
            "# TYPE pool_pages gauge\n"
            "pool_pages 7\n"
            "# HELP queries_total Queries answered\n"
            "# TYPE queries_total counter\n"
            'queries_total{kind="knwc"} 1\n'
            'queries_total{kind="nwc"} 3\n'
            "# HELP work Node accesses\n"
            "# TYPE work histogram\n"
            'work_bucket{le="10"} 1\n'
            'work_bucket{le="100"} 2\n'
            'work_bucket{le="+Inf"} 3\n'
            "work_sum 555\n"
            "work_count 3\n"
        )

    def test_dump_metrics_escapes_label_values(self):
        reg = MetricsRegistry()
        reg.counter("c_total", labels={"q": 'a"b\\c'}).inc()
        text = reg.dump_metrics()
        assert r'q="a\"b\\c"' in text

    def test_dump_metrics_hostile_values_golden(self):
        """Exposition-format escaping: backslash, double quote and
        newline in label values; backslash and newline in HELP text
        (quotes are legal there).  Golden so a regression in either
        escaper shows as a diff, not a silently corrupt scrape."""
        reg = MetricsRegistry()
        reg.counter("c_total", "Help with \\ backslash\nand newline",
                    labels={"q": 'a"b\\c\nd'}).inc()
        reg.gauge("g", 'Help with "quotes" kept').set(2)
        assert reg.dump_metrics() == (
            "# HELP c_total Help with \\\\ backslash\\nand newline\n"
            "# TYPE c_total counter\n"
            'c_total{q="a\\"b\\\\c\\nd"} 1\n'
            '# HELP g Help with "quotes" kept\n'
            "# TYPE g gauge\n"
            "g 2\n"
        )
        # Every exposition line is physically one line: escaping kept
        # the embedded newlines out of the line structure.
        lines = reg.dump_metrics().strip().split("\n")
        assert len(lines) == 6

    def test_empty_registry_dumps_empty(self):
        assert MetricsRegistry().dump_metrics() == ""
        assert MetricsRegistry().to_dict() == {}

    def test_to_dict_shape(self):
        reg = MetricsRegistry()
        reg.counter("hits_total", "Cache hits").inc(2)
        h = reg.histogram("lat_seconds", "Latency")
        h.observe(0.01)
        data = reg.to_dict()
        assert data["hits_total"]["type"] == "counter"
        assert data["hits_total"]["values"][""] == 2.0
        summary = data["lat_seconds"]["values"][""]
        assert summary["count"] == 1.0
        assert summary["min"] == summary["max"] == pytest.approx(0.01)

    def test_to_dict_is_json_clean(self):
        import json
        reg = MetricsRegistry()
        reg.histogram("empty_seconds")
        text = json.dumps(reg.to_dict())
        assert "NaN" not in text and "Infinity" not in text

    def test_default_bucket_sets_are_sorted(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)
        assert list(DEFAULT_WORK_BUCKETS) == sorted(DEFAULT_WORK_BUCKETS)
