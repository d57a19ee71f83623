"""Tests for the safe-mode guardrail."""

import math

import pytest

from repro.core.engine import TrainingReport
from repro.errors import ConfigurationError
from repro.recovery import guardrail
from repro.recovery.events import EventLog
from repro.recovery.guardrail import (
    FALLBACK,
    LEARNING,
    LOSS_EXPLOSION,
    NAN_LOSS,
    THROUGHPUT_REGRESSION,
    Guardrail,
)


def make_rail(monkeypatch, **constants):
    """A Guardrail built with module constants overridden (by their
    lower-case names, e.g. ``window=3``)."""
    for name, value in constants.items():
        monkeypatch.setattr(guardrail, name.upper(), value)
    return Guardrail(event_log=EventLog())


def _report(test_mare=20.0, diverged=False):
    return TrainingReport(
        samples=100, epochs=5, train_seconds=0.1, test_mare=test_mare,
        test_mare_std=1.0, constant_mare=50.0, diverged=diverged,
        adjustment_mae=0.1, adjustment_sign=1,
    )


class TestTrainingChecks:
    def test_nan_loss_trips_within_one_step(self):
        rail = Guardrail()
        trip = rail.check_training(_report(test_mare=math.nan), run_index=5, t=1.0)
        assert trip is not None
        assert trip.reason == NAN_LOSS
        assert rail.mode == FALLBACK

    def test_inf_loss_trips(self):
        rail = Guardrail()
        trip = rail.check_training(_report(test_mare=math.inf), run_index=5, t=1.0)
        assert trip is not None and trip.reason == NAN_LOSS

    def test_diverged_report_trips(self):
        rail = Guardrail()
        trip = rail.check_training(_report(diverged=True), run_index=5, t=1.0)
        assert trip is not None and trip.reason == NAN_LOSS

    def test_loss_explosion_trips_against_first_healthy_baseline(
        self, monkeypatch
    ):
        rail = make_rail(monkeypatch, explode_factor=10.0)
        assert rail.check_training(_report(test_mare=20.0), run_index=5, t=1.0) is None
        assert rail.check_training(_report(test_mare=100.0), run_index=10, t=2.0) is None
        trip = rail.check_training(_report(test_mare=201.0), run_index=15, t=3.0)
        assert trip is not None
        assert trip.reason == LOSS_EXPLOSION
        assert trip.detail["baseline_mare"] == 20.0

    def test_healthy_reports_never_trip(self):
        rail = Guardrail()
        for run in range(1, 10):
            assert rail.check_training(_report(), run_index=run, t=run) is None
        assert rail.mode == LEARNING

    def test_none_report_ignored(self):
        assert Guardrail().check_training(None, run_index=1, t=1.0) is None


class TestThroughputChecks:
    def test_regression_trips_when_window_fills(self, monkeypatch):
        rail = make_rail(monkeypatch, window=3, regression_fraction=0.5)
        # Realized is 10% of predicted: collapses as soon as the window
        # holds enough evidence (one control step after the 3rd pair).
        assert rail.observe_throughput(0.1, 1.0, run_index=1, t=1.0) is None
        assert rail.observe_throughput(0.1, 1.0, run_index=2, t=2.0) is None
        trip = rail.observe_throughput(0.1, 1.0, run_index=3, t=3.0)
        assert trip is not None
        assert trip.reason == THROUGHPUT_REGRESSION
        assert trip.detail["fraction"] == pytest.approx(0.1)

    def test_healthy_throughput_never_trips(self, monkeypatch):
        rail = make_rail(monkeypatch, window=2, regression_fraction=0.5)
        for run in range(1, 10):
            assert rail.observe_throughput(1.0, 1.1, run_index=run, t=run) is None

    def test_runs_without_prediction_skip_the_window(self, monkeypatch):
        rail = make_rail(monkeypatch, window=2)
        for run in range(1, 10):
            assert rail.observe_throughput(0.01, None, run_index=run, t=run) is None
        assert rail.mode == LEARNING


class TestModeMachine:
    def test_fallback_suppresses_checks_until_cooldown_expires(
        self, monkeypatch
    ):
        rail = make_rail(monkeypatch, cooldown_runs=2)
        rail.check_training(_report(diverged=True), run_index=5, t=1.0)
        assert rail.in_fallback
        # Checks are no-ops while benched.
        assert rail.check_training(_report(diverged=True), run_index=6, t=2.0) is None
        assert rail.observe_throughput(0.0, 1.0, run_index=6, t=2.0) is None
        assert not rail.tick(run_index=6, t=2.0)
        assert rail.tick(run_index=7, t=3.0)
        assert rail.mode == LEARNING

    def test_readmission_rearms_explosion_baseline(self, monkeypatch):
        rail = make_rail(monkeypatch, cooldown_runs=1, explode_factor=2.0)
        rail.check_training(_report(test_mare=1.0), run_index=1, t=1.0)
        rail.check_training(_report(test_mare=3.0), run_index=2, t=2.0)
        assert rail.in_fallback
        rail.tick(run_index=3, t=3.0)
        # A fresh (higher) baseline is accepted after readmission.
        assert rail.check_training(_report(test_mare=5.0), run_index=4, t=4.0) is None
        assert rail.mode == LEARNING

    def test_trips_and_events_recorded(self, monkeypatch):
        rail = make_rail(monkeypatch, cooldown_runs=1)
        events = rail.event_log
        rail.check_training(_report(diverged=True), run_index=5, t=1.0)
        rail.tick(run_index=6, t=2.0)
        assert [e.kind for e in events] == ["guardrail-trip", "guardrail-readmit"]
        assert len(rail.trips) == 1
        assert rail.trips[0].run_index == 5

    def test_state_round_trip_mid_fallback(self, monkeypatch):
        rail = make_rail(monkeypatch, window=3, cooldown_runs=3)
        rail.observe_throughput(1.0, 1.1, run_index=1, t=1.0)
        rail.check_training(_report(diverged=True), run_index=2, t=2.0)
        rail.tick(run_index=3, t=3.0)
        clone = Guardrail()
        clone.load_state_dict(rail.state_dict())
        assert clone.mode == FALLBACK
        assert clone.trips[0].reason == NAN_LOSS
        # Both need the same number of remaining ticks to re-admit.
        assert not clone.tick(run_index=4, t=4.0)
        assert clone.tick(run_index=5, t=5.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": 0},
            {"regression_fraction": 0.0},
            {"regression_fraction": 1.0},
            {"explode_factor": 1.0},
            {"cooldown_runs": 0},
            {"fallback": "mru"},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        ((name, bad),) = kwargs.items()
        if name == "fallback":
            with pytest.raises(ConfigurationError):
                Guardrail(**kwargs)
            return
        # The four tunables are constants of the module: each sits in the
        # range the constructor used to enforce, the rejected value not.
        valid = {
            "window": lambda v: v >= 1,
            "regression_fraction": lambda v: 0.0 < v < 1.0,
            "explode_factor": lambda v: v > 1.0,
            "cooldown_runs": lambda v: v >= 1,
        }[name]
        assert valid(getattr(guardrail, name.upper())) and not valid(bad)
