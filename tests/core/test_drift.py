"""Page-Hinkley drift detector unit tests."""

import numpy as np
import pytest

from repro.core import drift
from repro.core.drift import PageHinkley


@pytest.fixture
def make_detector(monkeypatch):
    """A detector under the given constants (the module's by default)."""

    def make(delta=drift.DELTA, threshold=drift.THRESHOLD,
             min_samples=drift.MIN_SAMPLES):
        # DELTA and THRESHOLD are in stds of the stream's prior values.
        monkeypatch.setattr(drift, "DELTA", delta)
        monkeypatch.setattr(drift, "THRESHOLD", threshold)
        monkeypatch.setattr(drift, "MIN_SAMPLES", min_samples)
        return PageHinkley()

    return make


class TestValidation:
    def test_rejects_negative_delta(self):
        assert drift.DELTA >= 0

    def test_rejects_non_positive_threshold(self):
        assert drift.THRESHOLD > 0

    def test_rejects_min_samples_below_one(self):
        assert drift.MIN_SAMPLES >= 1


def firings(detector, values) -> list[int]:
    """Indices where ``detector`` fires, reset after each firing as the
    engine does."""
    fired = []
    for i, value in enumerate(values):
        if detector.update(value):
            fired.append(i)
            detector.reset()
    return fired


def heavy_tailed_residuals(n, seed=0):
    """A stationary stream shaped like ``online_drift``'s prequential
    error: lognormal, mean ~1.07, std ~0.8."""
    return np.random.default_rng(seed).lognormal(-0.154, 0.666, n)


class TestDetection:
    def test_stationary_stream_never_fires(self, make_detector):
        detector = make_detector()
        assert not any(
            detector.update(0.1 + 0.01 * ((i % 3) - 1)) for i in range(200)
        )

    def test_near_constant_stream_never_fires(self, make_detector):
        # A parts-per-million creep is a steady climb in stds of its own
        # spread; the floor keeps it far below one std.
        detector = make_detector()
        assert not any(
            detector.update(1.07 * (1 + 1e-6 * i)) for i in range(50)
        )

    def test_heavy_tailed_stationary_stream_fires_at_most_once(
        self, make_detector
    ):
        # A threshold on the raw residual re-fires every ~10 values here,
        # each time the detector re-arms after MIN_SAMPLES.
        values = heavy_tailed_residuals(300)
        assert 1.0 < values.mean() < 1.15 and 0.7 < values.std() < 0.9
        assert len(firings(make_detector(), values)) <= 1

    def test_jump_in_heavy_tailed_stream_fires_within_a_few_values(
        self, make_detector
    ):
        values = heavy_tailed_residuals(100, seed=1)
        jumped = np.concatenate((values, 4.0 * heavy_tailed_residuals(
            10, seed=2
        )))
        fired = firings(make_detector(), jumped)
        assert fired and 100 <= fired[0] < 106

    def test_one_value_step_is_scaled_by_the_prior_spread(
        self, make_detector
    ):
        # Folded into its own yardstick, a step after n - 1 values is at
        # most sqrt(n - 1) stds: here 1.73, short of the 2-std cap.
        detector = make_detector(delta=0.0, threshold=1.9, min_samples=1)
        assert not any(detector.update(v) for v in (1.0, 1.1, 0.9))
        assert detector.update(100.0)
        assert detector.statistic == pytest.approx(drift.CLIP)

    def test_upward_shift_fires(self, make_detector):
        detector = make_detector(min_samples=4)
        for _ in range(30):
            assert not detector.update(0.1)
        fired = [detector.update(1.5) for _ in range(30)]
        assert any(fired)

    def test_downward_shift_does_not_fire(self, make_detector):
        # One-sided by design: residuals shrinking is good news.
        detector = make_detector(delta=0.0, threshold=0.5, min_samples=4)
        for _ in range(30):
            detector.update(1.0)
        assert not any(detector.update(0.01) for _ in range(50))

    def test_min_samples_suppresses_early_detection(self, make_detector):
        detector = make_detector(delta=0.0, threshold=0.1, min_samples=10)
        values = [0.0] * 5 + [5.0] * 4
        assert not any(detector.update(v) for v in values)
        assert detector.update(5.0)

    def test_reset_forgets_history(self, make_detector):
        detector = make_detector(min_samples=2)
        for _ in range(20):
            detector.update(0.1)
        for _ in range(20):
            detector.update(2.0)
        detector.reset()
        assert detector.samples == 0
        assert detector.statistic == 0.0
        assert not detector.update(2.0)


class TestState:
    def test_round_trip_preserves_behavior(self, make_detector):
        a = make_detector(min_samples=4)
        for i in range(25):
            a.update(0.1 + (i % 2) * 0.05)
        b = make_detector(min_samples=4)
        b.load_state_dict(a.state_dict())
        tail = [0.16, 0.1, 0.17, 0.9, 1.1, 1.3, 1.5, 1.7, 1.9]
        assert [a.update(v) for v in tail] == [b.update(v) for v in tail]
        assert a.statistic == b.statistic
