"""Unit tests for SLO tracking, burn-rate alerting, and the plane feed."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.facade import _slo_text
from repro.observability.metrics import Histogram
from repro.observability.slo import (
    ControlPlaneSLOFeed,
    SLOMonitor,
    SLOSpec,
    SLOTracker,
    histogram_counts_above,
)

WINDOWS = ((10.0, 2.0), (100.0, 1.5))


def spec(name="avail", target=0.9):
    return SLOSpec(name, target=target, windows=WINDOWS)


class TestSpec:
    def test_error_budget(self):
        assert spec(target=0.99).error_budget == pytest.approx(0.01)

    @pytest.mark.parametrize("target", [0.0, 1.0, -1.0, 2.0])
    def test_target_bounds(self, target):
        with pytest.raises(ConfigurationError):
            SLOSpec("x", target=target)

    def test_window_validation(self):
        with pytest.raises(ConfigurationError):
            SLOSpec("x", target=0.9, windows=())
        with pytest.raises(ConfigurationError):
            SLOSpec("x", target=0.9, windows=((0.0, 1.0),))
        with pytest.raises(ConfigurationError):
            SLOSpec("x", target=0.9, windows=((10.0, 0.0),))


class TestTracker:
    def test_burn_rate_scales_by_budget(self):
        tracker = SLOTracker(spec(target=0.9))  # 10% budget
        tracker.record(1.0, good=8, bad=2)      # 20% bad -> 2x burn
        assert tracker.burn_rate(10.0, 2.0) == pytest.approx(2.0)
        assert tracker.compliance == pytest.approx(0.8)

    def test_window_excludes_old_samples(self):
        tracker = SLOTracker(spec())
        tracker.record(0.0, good=0, bad=10)
        tracker.record(50.0, good=10, bad=0)
        assert tracker.burn_rate(10.0, 55.0) == 0.0
        assert tracker.burn_rate(100.0, 55.0) == pytest.approx(5.0)

    def test_empty_window_burns_nothing(self):
        tracker = SLOTracker(spec())
        assert tracker.burn_rate(10.0, 0.0) == 0.0
        assert tracker.compliance == 1.0

    def test_zero_sample_skipped_and_negative_rejected(self):
        tracker = SLOTracker(spec())
        tracker.record(1.0, good=0, bad=0)
        assert len(tracker.samples) == 0
        with pytest.raises(ConfigurationError):
            tracker.record(1.0, good=-1, bad=0)


class TestMonitor:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            SLOMonitor([spec(), spec()])

    def test_alert_requires_every_window_burning(self):
        monitor = SLOMonitor([spec()])
        # Burning fast recently but fine over the slow window: no alert.
        monitor.record("avail", 50.0, good=100, bad=0)
        monitor.record("avail", 99.0, good=0, bad=10)
        (status,) = monitor.evaluate(100.0)
        assert not status.alerting

    def test_final_status_alerts_then_clears(self):
        monitor = SLOMonitor([spec()])
        monitor.record("avail", 99.0, good=0, bad=10)
        (burning,) = monitor.evaluate(100.0)
        assert burning.alerting and burning.name == "avail"
        assert len(burning.burns) == len(WINDOWS)
        monitor.record("avail", 150.0, good=1000, bad=0)
        (recovered,) = monitor.evaluate(250.0)   # both windows recovered
        assert not recovered.alerting

    def test_unknown_objective_rejected(self):
        with pytest.raises(ConfigurationError):
            SLOMonitor([spec()]).record("ghost", 0.0, good=1, bad=0)

    def test_render_marks_burning_windows(self):
        monitor = SLOMonitor([spec()])
        monitor.record("avail", 99.0, good=0, bad=10)
        text = _slo_text([s.to_dict() for s in monitor.evaluate(100.0)])
        assert "avail" in text and "ALERT" in text and "!" in text


class TestHistogramCountsAbove:
    def test_splits_at_bucket_boundary(self):
        # 0.05 is one of the default bucket edges
        hist = Histogram()
        for value in (0.001, 0.02, 0.2, 2.0):
            hist.observe(value)
        below, above = histogram_counts_above(hist, 0.05)
        assert (below, above) == (2, 2)

    def test_null_histogram_reports_nothing(self):
        # A histogram that saw no batch yet (a run's first tick).
        assert histogram_counts_above(Histogram(), 0.05) == (0, 0)


class TestControlPlaneFeed:
    class _FakePlane:
        """Just enough surface for the feed: the daemon's histogram."""

        def __init__(self, hist):
            class _Daemon:
                queue_delay_histogram = hist

            self.daemon = _Daemon()

    def _feed(self):
        hist = Histogram()
        monitor = SLOMonitor(ControlPlaneSLOFeed.default_specs())
        geo = self._FakePlane(hist)
        return ControlPlaneSLOFeed(
            monitor, geo, queue_delay_threshold_s=0.05,
            throughput_floor_gbps=1.0,
        ), geo, hist

    def test_tick_records_counter_deltas_once(self):
        feed, _, hist = self._feed()
        hist.observe(0.02)
        hist.observe(0.2)
        feed.tick(10.0)
        feed.tick(11.0)   # no new activity: no double counting
        delay = feed.monitor.trackers["queue-delay"]
        assert (delay.total_good, delay.total_bad) == (1, 1)
        hist.observe(0.03)
        feed.tick(12.0)
        assert (delay.total_good, delay.total_bad) == (2, 1)

    def test_observe_run_applies_floor(self):
        feed, _, _ = self._feed()
        feed.observe_run(1.0, 2.0)
        feed.observe_run(2.0, 0.5)
        floor = feed.monitor.trackers["throughput-floor"]
        assert (floor.total_good, floor.total_bad) == (1, 1)

    def test_default_specs_cover_the_two_objectives(self):
        names = {s.name for s in ControlPlaneSLOFeed.default_specs()}
        assert names == {"queue-delay", "throughput-floor"}
