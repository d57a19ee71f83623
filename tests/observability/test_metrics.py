"""Metric semantics, null handles, and the two export surfaces."""

import json
import math
import re

import pytest

from repro.errors import ConfigurationError
from repro.observability import metrics as metrics_module
from repro.observability.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Histogram,
    MetricsRegistry,
)


class TestCounterAndGauge:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_ops_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("repro_test_depth")
        gauge.set(4.0)
        gauge.inc()
        gauge.inc(-2.0)
        assert gauge.value == 3.0

    def test_get_or_create_returns_same_handle(self):
        registry = MetricsRegistry()
        assert registry.counter("repro_test_a_total") is registry.counter(
            "repro_test_a_total"
        )

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_x_total")
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.gauge("repro_test_x_total")

    def test_invalid_name_rejected(self):
        with pytest.raises(ConfigurationError, match="invalid metric name"):
            MetricsRegistry().counter("bad name!")


class TestHistogram:
    def test_observations_land_in_buckets(self):
        hist = Histogram("repro_test_lat_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        assert hist.counts == [1, 1, 1]
        assert hist.count == 3
        assert hist.sum == pytest.approx(5.55)

    def test_quantiles_interpolate(self):
        hist = Histogram("repro_test_lat_seconds", buckets=(1.0, 2.0, 4.0))
        for _ in range(100):
            hist.observe(1.5)
        # All mass in the (1, 2] bucket: every quantile lands inside it.
        assert 1.0 <= hist.p50 <= 2.0
        assert 1.0 <= hist.p95 <= 2.0
        assert 1.0 <= hist.p99 <= 2.0
        assert hist.p50 <= hist.p95 <= hist.p99

    def test_overflow_bucket_reports_top_edge(self):
        hist = Histogram("repro_test_lat_seconds", buckets=(0.1,))
        hist.observe(99.0)
        assert hist.p99 == 0.1

    def test_p999_tracks_the_extreme_tail(self):
        hist = Histogram("repro_test_lat_seconds", buckets=(0.1, 1.0, 10.0))
        for _ in range(99):
            hist.observe(0.05)
        hist.observe(5.0)
        # One outlier in a hundred: p99 stays at the first bucket's edge
        # while p999 climbs into the outlier's bucket.
        assert hist.p99 <= 0.1
        assert 1.0 <= hist.p999 <= 10.0
        assert hist.p999 == hist.quantile(0.999)

    def test_p999_in_snapshot(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_test_lat_seconds")
        hist.observe(0.05)
        snap = registry.snapshot()
        assert "p999" in snap["histograms"]["repro_test_lat_seconds"]

    def test_empty_histogram_quantile_is_zero(self):
        assert Histogram("repro_test_lat_seconds").p95 == 0.0

    def test_bucket_validation(self):
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            Histogram("repro_test_lat_seconds", buckets=(1.0, 1.0))
        with pytest.raises(ConfigurationError, match="at least one"):
            Histogram("repro_test_lat_seconds", buckets=())
        with pytest.raises(ConfigurationError, match="quantile"):
            Histogram("repro_test_lat_seconds").quantile(1.5)


class TestDisabledRegistry:
    def test_hands_out_shared_null_handles(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("repro_test_a_total") is NULL_COUNTER
        assert registry.gauge("repro_test_b") is NULL_GAUGE
        assert registry.histogram("repro_test_c_seconds") is NULL_HISTOGRAM
        assert len(registry) == 0

    def test_null_handles_do_nothing(self):
        NULL_COUNTER.inc(5)
        NULL_GAUGE.set(5)
        NULL_HISTOGRAM.observe(5)
        assert NULL_COUNTER.value == 0.0
        assert NULL_GAUGE.value == 0.0
        assert NULL_HISTOGRAM.p99 == 0.0
        assert NULL_HISTOGRAM.p999 == 0.0


class TestExport:
    @pytest.fixture
    def registry(self, monkeypatch):
        monkeypatch.setattr(metrics_module, "DEFAULT_BUCKETS", (0.1, 1.0))
        registry = MetricsRegistry()
        registry.counter("repro_engine_ticks_total", "control ticks").inc(3)
        registry.gauge("repro_nn_test_mare_percent").set(12.5)
        hist = registry.histogram("repro_nn_train_seconds", "training time")
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        return registry

    def test_prometheus_golden(self, registry):
        assert registry.render_prometheus() == (
            "# HELP repro_engine_ticks_total control ticks\n"
            "# TYPE repro_engine_ticks_total counter\n"
            "repro_engine_ticks_total 3\n"
            "# TYPE repro_nn_test_mare_percent gauge\n"
            "repro_nn_test_mare_percent 12.5\n"
            "# HELP repro_nn_train_seconds training time\n"
            "# TYPE repro_nn_train_seconds histogram\n"
            'repro_nn_train_seconds_bucket{le="0.1"} 1\n'
            'repro_nn_train_seconds_bucket{le="1.0"} 2\n'
            'repro_nn_train_seconds_bucket{le="+Inf"} 3\n'
            "repro_nn_train_seconds_sum 5.55\n"
            "repro_nn_train_seconds_count 3\n"
        )

    def test_non_finite_samples_render_as_the_text_format_spells_them(self):
        registry = MetricsRegistry()
        for name, value in (("nan", "nan"), ("up", "inf"), ("down", "-inf")):
            registry.gauge(f"repro_nn_{name}_percent").set(float(value))
        samples = [
            line for line in registry.render_prometheus().splitlines()
            if not line.startswith("#")
        ]
        assert samples == [
            "repro_nn_down_percent -Inf",
            "repro_nn_nan_percent NaN",
            "repro_nn_up_percent +Inf",
        ]
        # Rendering leaves the gauge as it was: NaN, not a clamped number.
        assert math.isnan(registry.gauge("repro_nn_nan_percent").value)

    def test_snapshot_structure(self, registry):
        snap = registry.snapshot()
        assert snap["counters"]["repro_engine_ticks_total"] == 3
        assert snap["gauges"]["repro_nn_test_mare_percent"] == 12.5
        hist = snap["histograms"]["repro_nn_train_seconds"]
        assert hist["count"] == 3
        assert hist["overflow"] == 1
        assert set(hist["buckets"]) == {"0.1", "1.0"}

    def test_write_snapshot_appends_jsonl(self, registry, tmp_path):
        sink = tmp_path / "metrics.jsonl"
        registry.write_snapshot(sink, run=1, seed=0)
        registry.counter("repro_engine_ticks_total").inc()
        registry.write_snapshot(sink, run=2, seed=0)
        lines = [
            json.loads(line)
            for line in sink.read_text().splitlines()
        ]
        assert [line["run"] for line in lines] == [1, 2]
        assert (
            lines[1]["metrics"]["counters"]["repro_engine_ticks_total"] == 4
        )

    def test_subsystems(self, registry):
        typed = re.findall(
            r"^# TYPE repro_([a-z]+)_", registry.render_prometheus(), re.M
        )
        assert set(typed) == {"engine", "nn"}
