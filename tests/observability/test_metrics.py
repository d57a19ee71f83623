"""The metric table, the histogram value type and the two exports."""

import json
import math
import re
from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError
from repro.observability import metrics
from repro.observability.metrics import Histogram, Metric

#: a small table over a stand-in run whose tallies are plain attributes
TABLE = (
    Metric("repro_engine_ticks_total", "counter", "control ticks",
           lambda geo, runner: geo.ticks),
    Metric("repro_nn_test_mare_percent", "gauge", "",
           lambda geo, runner: geo.mare),
    Metric("repro_nn_train_seconds", "histogram", "training time",
           lambda geo, runner: geo.train_seconds),
)


@pytest.fixture
def run(monkeypatch):
    """The stand-in ``geo`` of :data:`TABLE`, installed as the table."""
    monkeypatch.setattr(metrics, "METRICS", TABLE)
    geo = SimpleNamespace(
        ticks=3, mare=12.5, train_seconds=Histogram(buckets=(0.1, 1.0))
    )
    for value in (0.05, 0.5, 5.0):
        geo.train_seconds.observe(value)
    return geo


class TestCounterAndGauge:
    def test_counter_accumulates(self, run):
        run.ticks = 1
        first = metrics.snapshot(run, None, None)["counters"]
        run.ticks += 2
        second = metrics.snapshot(run, None, None)["counters"]
        assert [first["repro_engine_ticks_total"],
                second["repro_engine_ticks_total"]] == [1.0, 3.0]

    def test_gauge_moves_both_ways(self, run):
        seen = []
        for value in (4.0, 3.0, 5.0):
            run.mare = value
            seen.append(
                metrics.snapshot(run, None, None)["gauges"][
                    "repro_nn_test_mare_percent"
                ]
            )
        assert seen == [4.0, 3.0, 5.0]


class TestTable:
    def test_every_name_is_a_valid_prometheus_name(self):
        table = metrics.run_metrics(injector=object())
        names = [metric.name for metric in table]
        assert len(set(names)) == len(names) == 39
        subsystems = "agents|engine|nn|replaydb|features|simulation|faults|workloads"
        for metric in table:
            assert re.match(rf"^repro_({subsystems})_[a-z0-9_]+$", metric.name)
            assert metric.kind in ("counter", "gauge", "histogram")
            assert metric.help
            assert metric.name.endswith("_total") == (metric.kind == "counter")

    def test_injector_rows_only_with_an_injector(self):
        assert len(metrics.run_metrics(None)) == 37
        assert len(metrics.run_metrics(object())) == 39


class TestHistogram:
    def test_observations_land_in_buckets(self):
        hist = Histogram(buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        assert hist.counts == [1, 1, 1]
        assert hist.count == 3
        assert hist.sum == pytest.approx(5.55)

    def test_quantiles_interpolate(self):
        hist = Histogram(buckets=(1.0, 2.0, 4.0))
        for _ in range(100):
            hist.observe(1.5)
        # All mass in the (1, 2] bucket: every quantile lands inside it.
        assert 1.0 <= hist.p50 <= 2.0
        assert 1.0 <= hist.p95 <= 2.0
        assert 1.0 <= hist.p99 <= 2.0
        assert hist.p50 <= hist.p95 <= hist.p99

    def test_overflow_bucket_reports_top_edge(self):
        hist = Histogram(buckets=(0.1,))
        hist.observe(99.0)
        assert hist.p99 == 0.1

    def test_p999_tracks_the_extreme_tail(self):
        hist = Histogram(buckets=(0.1, 1.0, 10.0))
        for _ in range(99):
            hist.observe(0.05)
        hist.observe(5.0)
        # One outlier in a hundred: p99 stays at the first bucket's edge
        # while p999 climbs into the outlier's bucket.
        assert hist.p99 <= 0.1
        assert 1.0 <= hist.p999 <= 10.0
        assert hist.p999 == hist.quantile(0.999)

    def test_p999_in_snapshot(self, run):
        snap = metrics.snapshot(run, None, None)
        assert "p999" in snap["histograms"]["repro_nn_train_seconds"]

    def test_empty_histogram_quantile_is_zero(self):
        assert Histogram().p95 == 0.0

    def test_bucket_validation(self):
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            Histogram(buckets=(1.0, 1.0))
        with pytest.raises(ConfigurationError, match="at least one"):
            Histogram(buckets=())
        with pytest.raises(ConfigurationError, match="quantile"):
            Histogram().quantile(1.5)


class TestExport:
    def test_prometheus_golden(self, run):
        assert metrics.render_prometheus(run, None, None) == (
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

    def test_non_finite_samples_render_as_the_text_format_spells_them(
        self, monkeypatch
    ):
        geo = SimpleNamespace(nan=float("nan"), up=math.inf, down=-math.inf)
        monkeypatch.setattr(metrics, "METRICS", tuple(
            Metric(f"repro_nn_{name}_percent", "gauge", "",
                   lambda geo, runner, name=name: getattr(geo, name))
            for name in ("nan", "up", "down")
        ))
        samples = [
            line for line in metrics.render_prometheus(geo, None, None).splitlines()
            if not line.startswith("#")
        ]
        assert samples == [
            "repro_nn_down_percent -Inf",
            "repro_nn_nan_percent NaN",
            "repro_nn_up_percent +Inf",
        ]
        # Rendering leaves the tally as it was: NaN, not a clamped number.
        assert math.isnan(geo.nan)

    def test_snapshot_structure(self, run):
        snap = metrics.snapshot(run, None, None)
        assert snap["counters"]["repro_engine_ticks_total"] == 3
        assert snap["gauges"]["repro_nn_test_mare_percent"] == 12.5
        hist = snap["histograms"]["repro_nn_train_seconds"]
        assert hist["count"] == 3
        assert hist["overflow"] == 1
        assert set(hist["buckets"]) == {"0.1", "1.0"}

    def test_write_snapshot_appends_jsonl(self, run, tmp_path):
        sink = tmp_path / "metrics.jsonl"
        metrics.write_snapshot(sink, run, None, None, run=1, seed=0)
        run.ticks += 1
        metrics.write_snapshot(sink, run, None, None, run=2, seed=0)
        lines = [
            json.loads(line)
            for line in sink.read_text().splitlines()
        ]
        assert [line["run"] for line in lines] == [1, 2]
        assert (
            lines[1]["metrics"]["counters"]["repro_engine_ticks_total"] == 4
        )

    def test_subsystems(self, run):
        typed = re.findall(
            r"^# TYPE repro_([a-z]+)_",
            metrics.render_prometheus(run, None, None), re.M,
        )
        assert set(typed) == {"engine", "nn"}
