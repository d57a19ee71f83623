"""Tests for the control agent's transactional execution and retries."""

import pytest

from repro.agents import control as control_module
from repro.agents.control import ControlAgent
from repro.agents.messages import LayoutCommand
from repro.errors import AgentError
from repro.faults import health as health_module
from repro.faults.health import HealthTracker
from repro.simulation.cluster import StorageCluster
from repro.simulation.device import DeviceSpec, StorageDevice
from repro.simulation.interference import ConstantLoad
from repro.simulation.network import TransferLink

GB = 10**9


def make_cluster():
    devices = [
        StorageDevice(
            DeviceSpec(name=name, fsid=i, read_gbps=2.0, write_gbps=2.0,
                       capacity_bytes=50 * GB, noise_sigma=0.0),
            ConstantLoad(0.0),
        )
        for i, name in enumerate(["a", "b", "c"])
    ]
    cluster = StorageCluster(
        devices, link=TransferLink(bandwidth_gbps=1.0, latency_s=0.0)
    )
    cluster.add_file(1, "f1", GB, "a")
    cluster.add_file(2, "f2", GB, "a")
    return cluster


def control_agent(monkeypatch, cluster, health=None, **constants):
    """A control agent under the retry constants given in lower case."""
    for name, value in constants.items():
        monkeypatch.setattr(control_module, name.upper(), value)
    return ControlAgent(cluster, health=health)


def failing_interceptor(times):
    """Abort the first ``times`` migration attempts halfway through."""
    state = {"left": times}

    def intercept(fid, src, dst, t, size_bytes):
        if state["left"] > 0:
            state["left"] -= 1
            return 0.5
        return None

    return intercept


class TestTransactionalExecution:
    def test_failed_move_is_recorded_and_rolled_back(self):
        cluster = make_cluster()
        cluster.migration_interceptor = failing_interceptor(1)
        control = ControlAgent(cluster)
        records = control.execute(LayoutCommand({1: "b"}, issued_at=10.0))
        assert len(records) == 1 and not records[0].succeeded
        assert records[0].bytes_moved == GB // 2
        assert cluster.file(1).device == "a"
        assert control.moves_failed == 1
        assert control.pending_retries == 1

    def test_one_failure_does_not_poison_the_batch(self):
        cluster = make_cluster()
        cluster.migration_interceptor = failing_interceptor(1)
        control = ControlAgent(cluster)
        records = control.execute(
            LayoutCommand({1: "b", 2: "c"}, issued_at=0.0)
        )
        assert [r.succeeded for r in records] == [False, True]
        assert cluster.file(2).device == "c"
        assert control.files_moved == 1

    def test_unavailable_destination_is_skipped_not_fatal(self):
        cluster = make_cluster()
        cluster.set_device_available("b", False)
        control = ControlAgent(cluster)
        records = control.execute(LayoutCommand({1: "b"}, issued_at=0.0))
        assert records == []
        assert control.moves_skipped == 1
        assert cluster.file(1).device == "a"

    def test_offline_destination_is_skipped_not_fatal(self):
        cluster = make_cluster()
        cluster.set_device_online("b", False)
        control = ControlAgent(cluster)
        assert control.execute(LayoutCommand({1: "b"}, issued_at=0.0)) == []
        assert control.moves_skipped == 1

    def test_unknown_device_rejected_wholesale(self):
        control = ControlAgent(make_cluster())
        with pytest.raises(AgentError, match="ghost"):
            control.execute(LayoutCommand({1: "ghost"}, issued_at=0.0))


class TestRetries:
    def test_backoff_gates_the_retry(self):
        cluster = make_cluster()
        cluster.migration_interceptor = failing_interceptor(1)
        control = ControlAgent(cluster)
        control.execute(LayoutCommand({1: "b"}, issued_at=10.0))
        failed_at = 10.0 + control.cluster.link.latency_s
        assert not control.has_due_retries(failed_at + 1.0)
        # An execute before the backoff expires does not re-attempt.
        control.execute(LayoutCommand({}, issued_at=failed_at + 1.0))
        assert control.moves_retried == 0
        assert control.pending_retries == 1

    def test_due_retry_rides_along_and_succeeds(self):
        cluster = make_cluster()
        cluster.migration_interceptor = failing_interceptor(1)
        control = ControlAgent(cluster)
        control.execute(LayoutCommand({1: "b"}, issued_at=10.0))
        records = control.execute(LayoutCommand({}, issued_at=100.0))
        assert control.moves_retried == 1
        assert [r.succeeded for r in records] == [True]
        assert cluster.file(1).device == "b"
        assert control.pending_retries == 0

    def test_backoff_doubles_per_attempt(self, monkeypatch):
        cluster = make_cluster()
        cluster.migration_interceptor = failing_interceptor(10)
        control = control_agent(
            monkeypatch, cluster, max_move_retries=5, retry_backoff_s=4.0
        )
        control.execute(LayoutCommand({1: "b"}, issued_at=0.0))
        first = control._retries[1].next_eligible_t
        records = control.execute(LayoutCommand({}, issued_at=first))
        second = control._retries[1].next_eligible_t
        # Second failure waits twice as long as the first did (measured
        # from when the failed re-attempt finished).
        assert second - (first + records[0].duration) == pytest.approx(8.0)

    def test_fresh_target_supersedes_the_retry(self, monkeypatch):
        cluster = make_cluster()
        cluster.migration_interceptor = failing_interceptor(1)
        control = control_agent(monkeypatch, cluster, retry_backoff_s=1.0)
        control.execute(LayoutCommand({1: "b"}, issued_at=0.0))
        records = control.execute(LayoutCommand({1: "c"}, issued_at=50.0))
        assert control.moves_retried == 0
        assert [r.dst_device for r in records] == ["c"]
        assert cluster.file(1).device == "c"
        assert control.pending_retries == 0

    def test_retries_exhaust_after_the_cap(self, monkeypatch):
        cluster = make_cluster()
        cluster.migration_interceptor = failing_interceptor(100)
        control = control_agent(
            monkeypatch, cluster, max_move_retries=2, retry_backoff_s=1.0
        )
        t = 0.0
        for _ in range(5):
            t += 100.0
            control.execute(LayoutCommand({} if t > 100 else {1: "b"},
                                          issued_at=t))
        assert control.pending_retries == 0
        (exhausted,) = control.exhausted
        assert (exhausted.fid, exhausted.dst, exhausted.attempts) == (1, "b", 3)
        assert control.moves_retried == 2

    def test_zero_retries_exhausts_immediately(self, monkeypatch):
        cluster = make_cluster()
        cluster.migration_interceptor = failing_interceptor(1)
        control = control_agent(monkeypatch, cluster, max_move_retries=0)
        control.execute(LayoutCommand({1: "b"}, issued_at=0.0))
        assert control.pending_retries == 0
        assert len(control.exhausted) == 1


class TestHealthIntegration:
    def test_repeated_failures_quarantine_the_destination(self, monkeypatch):
        cluster = make_cluster()
        cluster.migration_interceptor = failing_interceptor(100)
        monkeypatch.setattr(health_module, "QUARANTINE_THRESHOLD", 2)
        monkeypatch.setattr(health_module, "QUARANTINE_DURATION_S", 1000.0)
        health = HealthTracker()
        control = control_agent(
            monkeypatch, cluster, health,
            max_move_retries=5, retry_backoff_s=1.0,
        )
        control.execute(LayoutCommand({1: "b"}, issued_at=0.0))
        control.execute(LayoutCommand({}, issued_at=100.0))
        assert health.is_quarantined("b", 101.0)

    def test_success_reports_health(self):
        cluster = make_cluster()
        health = HealthTracker()
        control = ControlAgent(cluster, health=health)
        control.execute(LayoutCommand({1: "b"}, issued_at=0.0))
        assert health.successes == 1


class TestBackoffJitter:
    def test_backoff_is_capped(self, monkeypatch):
        monkeypatch.setattr(control_module, "RETRY_BACKOFF_S", 4.0)
        monkeypatch.setattr(control_module, "RETRY_BACKOFF_MAX_S", 10.0)
        backoff = control_module._backoff
        assert backoff(1) == pytest.approx(4.0)
        assert backoff(2) == pytest.approx(8.0)
        assert backoff(3) == pytest.approx(10.0)
        assert backoff(15) == pytest.approx(10.0)

    def test_cap_below_base_rejected(self):
        assert control_module.RETRY_BACKOFF_MAX_S >= control_module.RETRY_BACKOFF_S

    def test_jitter_off_by_default_and_deterministic(self):
        """Retries never jitter: the delay is a function of the attempt."""
        assert control_module._backoff(2) == pytest.approx(10.0)
        assert control_module._backoff(2) == control_module._backoff(2)
