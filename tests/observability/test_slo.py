"""The ``run`` report's SLO burn table, and the streaming tracker it is
held to (:mod:`tests.oracles.slo_tracker`)."""

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.agents.daemon import InterfaceDaemon
from repro.core.config import GeomancyConfig
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments import facade
from repro.experiments.facade import Exports, _slo_text
from repro.experiments.spec import TEST_SCALE
from repro.observability import slo
from repro.observability.metrics import Histogram
from repro.observability.slo import histogram_counts_above, slo_statuses
from tests.oracles.slo_tracker import (
    ControlPlaneSLOFeed,
    SLOMonitor,
    SLOSpec,
    SLOTracker,
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


#: a row lands on a cutoff when ``now`` is a row's time plus a window
_GAPS = st.sampled_from([0.0, 1.0, 10.0, 60.0, 600.0]) | st.integers(
    0, 900
).map(float)
_DELAYS = st.lists(st.sampled_from([0.001, 0.02, 0.05, 0.2, 2.0]), max_size=5)
_GBPS = st.sampled_from([0.0, 1.0, 2.5]) | st.floats(0.0, 5.0)
#: the burns of a window half bad (queue-delay) and all bad (throughput)
_AT_BURN = (0.5 / (1.0 - 0.95), 1.0 / (1.0 - 0.90))


@st.composite
def slo_streams(draw):
    """``(windows, delay threshold, floor, runs, now)``: each run is a
    time gap, the queue delays landed in it (none: a zero-delta row) and
    its mean GB/s; ``now`` is the last run's time or sits one window
    after some run's.  Thresholds as low as 0.5x let both objectives
    alert (throughput-floor burns at most 10x); two equal a burn a window
    can reach, which must not alert."""
    windows = tuple(draw(st.lists(
        st.tuples(
            st.integers(1, 700).map(float),
            st.sampled_from([0.5, 1.5, 6.0, 14.0, *_AT_BURN]),
        ),
        min_size=1, max_size=3,
    )))
    runs = draw(st.lists(st.tuples(_GAPS, _DELAYS, _GBPS), max_size=30))
    t, times = 0.0, []
    for gap, _, _ in runs:
        t += gap
        times.append(t)
    nows = [times[-1] if times else 0.0]
    nows += [at + window_s for at in times for window_s, _ in windows]
    return (
        windows,
        draw(st.sampled_from([0.001, 0.05, 0.5])),
        draw(st.sampled_from([0.0, 1.0, 2.5])),
        runs,
        draw(st.sampled_from(nows)),
    )


def _both(windows, threshold, floor, runs, now):
    """The burn table from per-run rows, and the oracle's statuses
    from its feed sampling the same run as it went."""
    hist = Histogram()
    monitor = SLOMonitor([
        SLOSpec(name, target=target, windows=windows)
        for name, target in slo.OBJECTIVES
    ])
    feed = ControlPlaneSLOFeed(
        monitor, TestControlPlaneFeed._FakePlane(hist),
        queue_delay_threshold_s=threshold,
        throughput_floor_gbps=floor,
    )
    t, rows = 0.0, []
    for gap, delays, gbps in runs:
        t += gap
        for delay in delays:
            hist.observe(delay)
        feed.tick(t)
        feed.observe_run(t, gbps)
        rows.append((t, *histogram_counts_above(hist, threshold), gbps))
    with mock.patch.object(slo, "WINDOWS", windows):
        ours = slo_statuses(rows, now, floor)
    return ours, [status.to_dict() for status in monitor.evaluate(now)]


_STOCK = slo.WINDOWS
_LOW = ((10.0, 0.5), (100.0, 0.5))


class TestStatusesMatchTheTracker:
    @settings(max_examples=300, deadline=None)
    @given(slo_streams())
    # a zero-delta run (no batch landed) inside both windows
    @example((_STOCK, 0.05, 1.0, [(0.0, [0.2], 2.0), (5.0, [], 0.5)], 5.0))
    # a run exactly at the 60 s cutoff counts in the window
    @example((_STOCK, 0.05, 1.0, [(0.0, [2.0], 0.5), (60.0, [0.02], 2.0)],
              60.0))
    # both objectives alerting
    @example((_LOW, 0.05, 1.0, [(0.0, [0.2, 2.0], 0.5), (5.0, [2.0], 0.0)],
              5.0))
    def test_equal_statuses(self, stream):
        ours, oracle = _both(*stream)
        assert ours == oracle

    def test_the_examples_cover_what_they_say(self):
        zero = _both(_STOCK, 0.05, 1.0, [(0.0, [], 2.0)], 0.0)[0]
        assert zero[0]["compliance"] == 1.0
        assert zero[0]["burns"][0][2] == 0.0
        at_cutoff = _both(
            _STOCK, 0.05, 1.0, [(0.0, [2.0], 0.5), (60.0, [0.02], 2.0)], 60.0
        )[0]
        assert at_cutoff[0]["burns"][0][2] == pytest.approx(0.5 / 0.05)
        alerting = _both(
            _LOW, 0.05, 1.0, [(0.0, [0.2, 2.0], 0.5), (5.0, [2.0], 0.0)], 5.0
        )[0]
        assert [status["alerting"] for status in alerting] == [True, True]

    def test_a_burn_at_its_threshold_does_not_alert(self):
        windows = tuple((window_s, _AT_BURN[1]) for window_s, _ in _STOCK)
        (_, floor), oracle = _both(windows, 0.05, 1.0, [(0.0, [], 0.5)], 0.0)
        assert floor["burns"][0][2] == floor["burns"][0][1]
        assert not floor["alerting"] and not oracle[1]["alerting"]

    def test_every_run_below_the_floor_alerts(self):
        """Throughput-floor burns at most 1 / (1 - 0.90) = 10x, under the
        60 s window's 14x: that window is capped at 10x, which a window
        of runs all below the floor reaches."""
        runs = [(30.0, [], 0.5)] * 20
        (delay, floor), (_, oracle) = _both(_STOCK, 0.05, 1.0, runs, 600.0)
        assert [burn for *_, burn in floor["burns"]] == [
            1.0 / (1.0 - 0.90)
        ] * 2
        assert floor["alerting"] and oracle["alerting"]
        assert not delay["alerting"]
        assert "alert at 10.0x, the most it can burn" in _slo_text([floor])

    def test_stock_objectives_and_windows(self):
        (delay, floor) = slo_statuses([], 0.0, 0.0)
        assert (delay["name"], delay["target"]) == ("queue-delay", 0.95)
        assert (floor["name"], floor["target"]) == ("throughput-floor", 0.90)
        assert [burn[:2] for burn in delay["burns"]] == [
            [60.0, 14.0], [600.0, 6.0]
        ]


class TestExportsThresholds:
    @pytest.mark.parametrize("kwargs", [
        dict(queue_delay_threshold_s=0.0),
        dict(queue_delay_threshold_s=-1.0),
        dict(throughput_floor_gbps=-0.5),
    ])
    def test_bad_threshold_rejected(self, kwargs):
        with pytest.raises(ExperimentError):
            Exports(**kwargs)


class TestRunRows:
    def test_the_first_run_counts_no_warm_up_batch(self, monkeypatch):
        """The daemon's queue-delay histogram also holds the warm-up's
        batches; each run's row counts only those sent since the
        measured phase began."""
        landed, phase_starts, rows = [], [], []
        ingest = InterfaceDaemon._ingest
        warm_up = facade.warm_up_through_agents
        statuses = facade.slo_statuses

        def spy_ingest(daemon, message, drained_at, *args):
            before = daemon.queue_delay_histogram.count
            stored = ingest(daemon, message, drained_at, *args)
            if daemon.queue_delay_histogram.count > before:
                landed.append((message.sent_at, drained_at))
            return stored

        def spy_warm_up(geo, runner, accesses):
            warm_up(geo, runner, accesses)
            phase_starts.append(runner.clock.now)

        def spy_statuses(slo_rows, now, floor):
            rows.extend(slo_rows)
            return statuses(slo_rows, now, floor)

        monkeypatch.setattr(InterfaceDaemon, "_ingest", spy_ingest)
        monkeypatch.setattr(facade, "warm_up_through_agents", spy_warm_up)
        monkeypatch.setattr(facade, "slo_statuses", spy_statuses)
        facade.run_facade(
            GeomancyConfig(), scale=TEST_SCALE, seed=0, exports=Exports()
        )
        (phase_start,) = phase_starts
        at, below, above, _ = rows[0]
        assert any(sent < phase_start for sent, _ in landed)
        in_run_1 = [
            sent for sent, drained in landed
            if phase_start <= sent and drained <= at
        ]
        assert below + above == len(in_run_1) > 0
