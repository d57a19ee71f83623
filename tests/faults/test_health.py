"""Tests for the device-health circuit breaker."""

import pytest

from repro.faults import health as health_module
from repro.faults.health import HealthTracker


@pytest.fixture
def make_tracker(monkeypatch):
    def make(threshold=3, duration=100.0):
        monkeypatch.setattr(health_module, "QUARANTINE_THRESHOLD", threshold)
        monkeypatch.setattr(health_module, "QUARANTINE_DURATION_S", duration)
        return HealthTracker()

    return make


class TestValidation:
    def test_bad_threshold_rejected(self):
        assert health_module.QUARANTINE_THRESHOLD >= 1

    def test_bad_duration_rejected(self):
        assert health_module.QUARANTINE_DURATION_S > 0


class TestCircuit:
    def test_below_threshold_stays_healthy(self, make_tracker):
        tracker = make_tracker()
        tracker.record_failure("a", t=0.0)
        tracker.record_failure("a", t=1.0)
        assert not tracker.is_quarantined("a", 2.0)
        assert tracker.consecutive_failures("a") == 2

    def test_threshold_opens_the_circuit(self, make_tracker):
        tracker = make_tracker()
        for t in range(3):
            tracker.record_failure("a", t=float(t))
        assert tracker.is_quarantined("a", 3.0)
        assert tracker.quarantines_opened == 1
        assert tracker.quarantined_devices(3.0) == ["a"]

    def test_success_resets_the_count_and_closes_the_circuit(self, make_tracker):
        tracker = make_tracker()
        tracker.record_failure("a", t=0.0)
        tracker.record_failure("a", t=1.0)
        tracker.record_success("a")
        tracker.record_failure("a", t=2.0)
        assert tracker.consecutive_failures("a") == 1
        assert not tracker.is_quarantined("a", 3.0)

    def test_failures_are_tracked_per_device(self, make_tracker):
        tracker = make_tracker(threshold=2)
        tracker.record_failure("a", t=0.0)
        tracker.record_failure("b", t=0.0)
        assert not tracker.is_quarantined("a", 1.0)
        assert not tracker.is_quarantined("b", 1.0)

    def test_expiry_goes_half_open(self, make_tracker):
        tracker = make_tracker(threshold=3, duration=100.0)
        for t in range(3):
            tracker.record_failure("a", t=float(t))
        assert tracker.is_quarantined("a", 50.0)
        # Past the expiry, the device gets one probe placement...
        assert not tracker.is_quarantined("a", 103.0)
        # ...but a single new failure re-opens the circuit immediately.
        tracker.record_failure("a", t=104.0)
        assert tracker.is_quarantined("a", 105.0)
        assert tracker.quarantines_opened == 2

    def test_probe_success_fully_closes_the_circuit(self, make_tracker):
        tracker = make_tracker(threshold=3, duration=100.0)
        for t in range(3):
            tracker.record_failure("a", t=float(t))
        assert not tracker.is_quarantined("a", 200.0)
        tracker.record_success("a")
        # The count went back to zero: two failures no longer trip it.
        tracker.record_failure("a", t=201.0)
        tracker.record_failure("a", t=202.0)
        assert not tracker.is_quarantined("a", 203.0)

    def test_healthy_filters_quarantined_devices(self, make_tracker):
        tracker = make_tracker(threshold=1)
        tracker.record_failure("b", t=0.0)
        assert tracker.healthy(["a", "b", "c"], 1.0) == ["a", "c"]
