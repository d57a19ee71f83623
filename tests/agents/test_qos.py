"""Tests for the QoS layer: priorities, token buckets, admission, and
the backpressure/shedding behaviour of the daemon and monitoring agents."""

import pytest

from repro.agents import monitoring as monitoring_module
from repro.agents import qos
from repro.agents.daemon import InterfaceDaemon
from repro.agents.deadletter import DeadLetterStore
from repro.agents.messages import LayoutCommand, TelemetryBatch
from repro.agents.monitoring import MonitoringAgent
from repro.agents.qos import (
    AdmissionController,
    Priority,
    TokenBucket,
    classify,
)
from repro.agents.transport import Transport
from repro.errors import ConfigurationError
from repro.observability import Observability
from repro.replaydb.db import ReplayDB
from repro.replaydb.records import AccessRecord, MovementRecord


def tokens_at(bucket, now):
    """The bucket's level once refilled to ``now``."""
    bucket.refill(now)
    return bucket.tokens


def access(device="var", fid=1, t=10):
    return AccessRecord(
        fid=fid, fsid=0, device=device, path="p", rb=1000, wb=0,
        ots=t, otms=0, cts=t + 1, ctms=0,
    )


def batch(n=1, device="var", t=1.0, tenant="default"):
    return TelemetryBatch(
        device=device,
        records=tuple(access(device, fid=i) for i in range(n)),
        sent_at=t,
        tenant=tenant,
    )


def movement(t=1.0):
    return MovementRecord(
        timestamp=t, fid=1, src_device="var", dst_device="file0",
        bytes_moved=10, duration=0.1, succeeded=True,
    )


class TestClassify:
    def test_control_outranks_movement_outranks_telemetry(self):
        assert classify(LayoutCommand(layout={}, issued_at=0.0)) is (
            Priority.CONTROL
        )
        assert classify(movement()) is Priority.MOVEMENT
        assert classify([movement(), movement()]) is Priority.MOVEMENT
        assert classify(batch()) is Priority.TELEMETRY

    def test_unknown_garbage_ranks_with_telemetry(self):
        assert classify("corrupt") is Priority.TELEMETRY
        assert classify(None) is Priority.TELEMETRY
        assert classify([]) is Priority.TELEMETRY
        assert classify(["not", "movements"]) is Priority.TELEMETRY


class TestTokenBucket:
    def test_starts_full_and_spends(self):
        bucket = TokenBucket(rate=10.0, burst=5.0)
        assert bucket.try_acquire(5.0, now=0.0)
        assert not bucket.try_acquire(1.0, now=0.0)

    def test_refills_at_rate_capped_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=5.0)
        bucket.try_acquire(5.0, now=0.0)
        assert tokens_at(bucket, 0.2) == pytest.approx(2.0)
        assert tokens_at(bucket, 100.0) == pytest.approx(5.0)

    def test_stale_timestamps_never_refund(self):
        bucket = TokenBucket(rate=10.0, burst=5.0)
        bucket.try_acquire(5.0, now=1.0)
        before = tokens_at(bucket, 1.0)
        # A reordered (older) timestamp must not add tokens.
        assert tokens_at(bucket, 0.5) == pytest.approx(before)

    def test_reserve_floor_blocks_low_priority(self):
        bucket = TokenBucket(rate=1.0, burst=10.0)
        assert not bucket.try_acquire(6.0, now=0.0, reserve=5.0)
        assert bucket.try_acquire(5.0, now=0.0, reserve=5.0)

    def test_counters_conserve(self):
        bucket = TokenBucket(rate=1.0, burst=4.0)
        bucket.try_acquire(3.0, now=0.0)
        bucket.try_acquire(3.0, now=0.0)
        assert bucket.granted == pytest.approx(3.0)
        assert bucket.denied == pytest.approx(3.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=1.0, burst=0.0)
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=1.0, burst=1.0).try_acquire(-1.0, now=0.0)


class TestAdmissionController:
    def controller(self, **kw):
        kw.setdefault("rate_records_s", 10.0)
        kw.setdefault("burst_records", 10.0)
        return AdmissionController(**kw)

    def test_admits_within_rate_sheds_flood(self):
        ctl = self.controller()
        first = ctl.admit("a", Priority.TELEMETRY, cost=8, now=0.0)
        second = ctl.admit("a", Priority.TELEMETRY, cost=8, now=0.0)
        assert first.admitted and not second.admitted
        assert ctl.shed_records == 8
        assert ctl.usage["a"].shed_messages == 1

    def test_tenants_are_isolated(self):
        ctl = self.controller()
        ctl.admit("flooder", Priority.TELEMETRY, cost=9, now=0.0)
        assert not ctl.admit(
            "flooder", Priority.TELEMETRY, cost=9, now=0.0
        ).admitted
        # A quiet tenant's bucket is untouched by the flooder.
        assert ctl.admit("quiet", Priority.TELEMETRY, cost=9, now=0.0).admitted

    def test_control_reserve_keeps_room_for_decisions(self, monkeypatch):
        monkeypatch.setattr(qos, "CONTROL_RESERVE_FRACTION", 0.2)
        ctl = self.controller()
        # Telemetry cannot drain below 20% of burst...
        assert ctl.admit("a", Priority.TELEMETRY, cost=8, now=0.0).admitted
        assert not ctl.admit("a", Priority.TELEMETRY, cost=1, now=0.0).admitted
        # ...but control is admitted unconditionally.
        assert ctl.admit("a", Priority.CONTROL, cost=5, now=0.0).admitted

    def test_control_never_drives_tokens_negative(self):
        ctl = self.controller()
        ctl.admit("a", Priority.CONTROL, cost=100, now=0.0)
        assert ctl.bucket("a").tokens >= 0.0


class TestDaemonAdmission:
    def daemon(self, admission=None, store=None):
        telemetry = Transport()
        daemon = InterfaceDaemon(
            ReplayDB(), telemetry, Transport(),
            admission=admission, dead_letter_store=store,
        )
        return daemon, telemetry

    def test_no_admission_ingests_everything(self):
        daemon, telemetry = self.daemon()
        telemetry.send(batch(n=5, t=1.0))
        assert daemon.pump_telemetry() == 5
        assert daemon.records_shed == 0

    def test_admission_sheds_past_rate(self):
        admission = AdmissionController(
            rate_records_s=1.0, burst_records=10.0
        )
        daemon, telemetry = self.daemon(admission=admission)
        telemetry.send(batch(n=5, t=0.0, tenant="a"))
        telemetry.send(batch(n=5, t=0.0, tenant="a"))
        assert daemon.pump_telemetry() == 5
        assert daemon.records_shed == 5
        assert daemon.batches_shed == 1

    def test_shed_event_announced_on_bus(self):
        obs = Observability(enabled=True)
        admission = AdmissionController(
            rate_records_s=1.0, burst_records=1.0
        )
        telemetry = Transport()
        daemon = InterfaceDaemon(
            ReplayDB(), telemetry, Transport(),
            obs=obs, admission=admission,
        )
        telemetry.send(batch(n=5, t=0.0, tenant="noisy"))
        daemon.pump_telemetry()
        kinds = [event.kind for event in obs.bus.history]
        assert "telemetry-shed" in kinds

    def test_ingest_single_message(self):
        daemon, _ = self.daemon()
        assert daemon.ingest(batch(n=3, t=1.0)) == 3
        assert daemon.records_ingested == 3
        assert daemon.ingest("garbage", now=2.0) == 0
        assert daemon.dead_letters == 1

    def test_dead_letters_persist_to_store(self):
        store = DeadLetterStore(capacity=4)
        daemon, telemetry = self.daemon(store=store)
        telemetry.send("not telemetry")
        daemon.pump_telemetry()
        assert len(store) == 1
        assert store.entries()[0].kind == "str"


class TestMonitoringBackpressure:
    def test_refused_send_coalesces_into_backlog(self):
        transport = Transport(capacity=1, policy="reject")
        transport.send("occupier")
        agent = MonitoringAgent(
            "var", transport, batch_size=8
        )
        for i in range(8):
            agent.observe_many([access(fid=i, t=i + 1)])
        # The auto-flush was refused: half the records survive as backlog.
        assert agent.sends_rejected == 1
        assert agent.buffered == 4
        assert agent.shed_records == 4
        assert agent.coalesced_records == 4

    def test_backlog_rides_along_next_flush(self):
        transport = Transport(capacity=1, policy="reject")
        transport.send("occupier")
        agent = MonitoringAgent("var", transport, batch_size=4)
        for i in range(4):
            agent.observe_many([access(fid=i, t=i + 1)])
        assert agent.buffered == 2
        transport.receive()  # pressure clears
        agent.observe_many([access(fid=9, t=9)])
        assert agent.flush(at=10.0) is True
        sent = transport.receive()
        fids = [record.fid for record in sent.records]
        assert fids == [0, 2, 9]  # down-sampled survivors first, in order

    def test_backlog_is_bounded(self, monkeypatch):
        monkeypatch.setattr(monitoring_module, "DOWNSAMPLE_FACTOR", 1)
        monkeypatch.setattr(monitoring_module, "BACKLOG_BATCHES", 1)
        transport = Transport(capacity=1, policy="reject")
        transport.send("occupier")
        agent = MonitoringAgent("var", transport, batch_size=4)
        for i in range(32):
            agent.observe_many([access(fid=i, t=i + 1)])
        assert agent.buffered <= 4 + agent.batch_size

    def test_tenant_rides_on_batches(self, monkeypatch):
        monkeypatch.setattr(monitoring_module, "TENANT", "b2")
        transport = Transport()
        agent = MonitoringAgent("var", transport, batch_size=2)
        agent.observe_many([access(fid=1, t=1)])
        agent.observe_many([access(fid=2, t=2)])
        assert transport.receive().tenant == "b2"

    def test_drop_oldest_transport_never_backpressures(self):
        transport = Transport(capacity=1, policy="drop-oldest")
        agent = MonitoringAgent("var", transport, batch_size=2)
        for i in range(8):
            agent.observe_many([access(fid=i, t=i + 1)])
        # Queue sheds internally; the sender never coalesces.
        assert agent.sends_rejected == 0
        assert agent.buffered == 0
