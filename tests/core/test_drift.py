"""Page-Hinkley drift detector unit tests."""

import pytest

from repro.core import drift
from repro.core.drift import PageHinkley


@pytest.fixture
def make_detector(monkeypatch):
    """A detector under the given constants (the module's by default)."""

    def make(delta=drift.DELTA, threshold=drift.THRESHOLD,
             min_samples=drift.MIN_SAMPLES):
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


class TestDetection:
    def test_stationary_stream_never_fires(self, make_detector):
        detector = make_detector(delta=0.05, threshold=1.0)
        assert not any(
            detector.update(0.1 + 0.01 * ((i % 3) - 1)) for i in range(200)
        )

    def test_upward_shift_fires(self, make_detector):
        detector = make_detector(delta=0.02, threshold=0.5, min_samples=4)
        for _ in range(30):
            assert not detector.update(0.1)
        fired = [detector.update(1.5) for _ in range(30)]
        assert any(fired)

    def test_downward_shift_does_not_fire(self, make_detector):
        # One-sided by design: residuals shrinking is good news.
        detector = make_detector(delta=0.02, threshold=0.5, min_samples=4)
        for _ in range(30):
            detector.update(1.0)
        assert not any(detector.update(0.01) for _ in range(50))

    def test_min_samples_suppresses_early_detection(self, make_detector):
        detector = make_detector(delta=0.0, threshold=0.1, min_samples=10)
        values = [0.0] * 5 + [5.0] * 4
        assert not any(detector.update(v) for v in values)
        assert detector.update(5.0)

    def test_reset_forgets_history(self, make_detector):
        detector = make_detector(delta=0.02, threshold=0.5, min_samples=2)
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
        a = make_detector(delta=0.02, threshold=0.5, min_samples=4)
        for i in range(25):
            a.update(0.1 + (i % 2) * 0.05)
        b = make_detector(delta=0.02, threshold=0.5, min_samples=4)
        b.load_state_dict(a.state_dict())
        tail = [0.9, 1.1, 1.3, 1.5, 1.7, 1.9]
        assert [a.update(v) for v in tail] == [b.update(v) for v in tail]
        assert a.statistic == b.statistic
