"""Tests for monitoring/control agents, transport and the Interface Daemon."""

import pytest

from repro.agents.control import ControlAgent
from repro.agents.daemon import InterfaceDaemon
from repro.agents.messages import LayoutCommand, TelemetryBatch
from repro.agents.monitoring import MonitoringAgent
from repro.agents.transport import Transport
from repro.errors import AgentError
from repro.replaydb.db import ReplayDB
from repro.replaydb.records import AccessRecord
from repro.simulation.cluster import StorageCluster
from repro.simulation.device import DeviceSpec, StorageDevice
from repro.simulation.interference import ConstantLoad

GB = 10**9


def access(device="var", fid=1, t=10):
    return AccessRecord(
        fid=fid, fsid=0, device=device, path="p", rb=1000, wb=0,
        ots=t, otms=0, cts=t + 1, ctms=0,
    )


def small_cluster():
    devices = [
        StorageDevice(
            DeviceSpec(name=name, fsid=i, read_gbps=1.0, write_gbps=1.0,
                       capacity_bytes=100 * GB, noise_sigma=0.0),
            ConstantLoad(0.0),
        )
        for i, name in enumerate(["var", "file0"])
    ]
    return StorageCluster(devices)


class TestMessages:
    def test_empty_batch_rejected(self):
        with pytest.raises(AgentError):
            TelemetryBatch(device="var", records=(), sent_at=0.0)

    def test_cross_device_batch_rejected(self):
        with pytest.raises(AgentError, match="contains records from"):
            TelemetryBatch(
                device="var", records=(access("file0"),), sent_at=0.0
            )

    def test_negative_timestamps_rejected(self):
        with pytest.raises(AgentError):
            TelemetryBatch(device="var", records=(access(),), sent_at=-1.0)
        with pytest.raises(AgentError):
            LayoutCommand(layout={}, issued_at=-1.0)


class TestTransport:
    def test_fifo_order(self):
        transport = Transport()
        transport.send("a")
        transport.send("b")
        assert transport.receive() == "a"
        assert transport.receive() == "b"

    def test_receive_empty_raises(self):
        with pytest.raises(AgentError):
            Transport().receive()

    def test_receive_all_drains(self):
        transport = Transport()
        transport.send(1)
        transport.send(2)
        assert transport.receive_all() == [1, 2]
        assert transport.pending == 0

    def test_latency_accounted(self):
        transport = Transport(latency_s=0.003)
        for _ in range(5):
            transport.send("x")
        assert transport.total_latency_s == pytest.approx(0.015)
        assert transport.messages_sent == 5

    def test_negative_latency_rejected(self):
        with pytest.raises(AgentError):
            Transport(latency_s=-0.1)


class TestMonitoringAgent:
    def test_buffers_until_batch_size(self):
        transport = Transport()
        agent = MonitoringAgent("var", transport)
        agent.batch_size = 3
        agent.observe_many([access(t=1)])
        agent.observe_many([access(t=2)])
        assert transport.pending == 0 and agent.buffered == 2
        agent.observe_many([access(t=3)])
        assert transport.pending == 1 and agent.buffered == 0

    def test_flush_sends_partial_batch(self):
        transport = Transport()
        agent = MonitoringAgent("var", transport)
        agent.observe_many([access()])
        assert agent.flush(at=11.0)
        batch = transport.receive()
        assert isinstance(batch, TelemetryBatch)
        assert len(batch.records) == 1

    def test_flush_empty_is_noop(self):
        agent = MonitoringAgent("var", Transport())
        assert not agent.flush(at=0.0)

    def test_wrong_device_rejected(self):
        agent = MonitoringAgent("var", Transport())
        with pytest.raises(AgentError, match="observed access on"):
            agent.observe_many([access("file0")])

    def test_invalid_construction(self):
        with pytest.raises(AgentError):
            MonitoringAgent("", Transport())


class TestControlAgent:
    def test_executes_layout(self):
        cluster = small_cluster()
        cluster.add_file(1, "p", GB, "var")
        agent = ControlAgent(cluster)
        moves = agent.execute(LayoutCommand(layout={1: "file0"}, issued_at=1.0))
        assert len(moves) == 1
        assert cluster.file(1).device == "file0"
        assert agent.files_moved == 1

    def test_unknown_device_rejected(self):
        cluster = small_cluster()
        cluster.add_file(1, "p", GB, "var")
        agent = ControlAgent(cluster)
        with pytest.raises(AgentError, match="unknown devices"):
            agent.execute(LayoutCommand(layout={1: "ghost"}, issued_at=0.0))

    def test_noop_layout(self):
        cluster = small_cluster()
        cluster.add_file(1, "p", GB, "var")
        agent = ControlAgent(cluster)
        moves = agent.execute(LayoutCommand(layout={1: "var"}, issued_at=0.0))
        assert moves == []
        assert agent.commands_executed == 1


class TestInterfaceDaemon:
    def test_pumps_telemetry_into_db(self):
        db = ReplayDB()
        telemetry = Transport()
        daemon = InterfaceDaemon(db, telemetry, Transport())
        telemetry.send(
            TelemetryBatch(device="var", records=(access(),), sent_at=11.0)
        )
        stored = daemon.pump_telemetry()
        assert stored == 1
        assert db.access_count() == 1
        assert daemon.batches_ingested == 1

    def test_pump_dead_letters_foreign_messages(self):
        db = ReplayDB()
        telemetry = Transport()
        daemon = InterfaceDaemon(db, telemetry, Transport())
        telemetry.send("not a batch")
        telemetry.send(
            TelemetryBatch(device="var", records=(access(),), sent_at=11.0)
        )
        telemetry.send(42)
        # Bad messages are counted and dropped; batches behind them still
        # land instead of being stranded by a mid-drain exception.
        stored = daemon.pump_telemetry()
        assert stored == 1
        assert db.access_count() == 1
        assert daemon.dead_letters == 2
        assert daemon.batches_ingested == 1

    def test_send_layout_enqueues_command(self):
        commands = Transport()
        daemon = InterfaceDaemon(ReplayDB(), Transport(), commands)
        daemon.send_layout({1: "file0"}, at=5.0)
        command = commands.receive()
        assert command.layout == {1: "file0"}
        assert command.issued_at == 5.0

    def test_record_movements(self):
        from repro.replaydb.records import MovementRecord
        db = ReplayDB()
        daemon = InterfaceDaemon(db, Transport(), Transport())
        daemon.record_movements(
            [MovementRecord(1.0, 1, "var", "file0", 100, 0.1)]
        )
        assert len(db.movements()) == 1

    def test_telemetry_link_charges_its_batches_alone(self):
        telemetry = Transport(latency_s=0.003)
        commands = Transport(latency_s=0.003)
        daemon = InterfaceDaemon(ReplayDB(), telemetry, commands)
        telemetry.send(
            TelemetryBatch(device="var", records=(access(),), sent_at=0.0)
        )
        daemon.send_layout({}, at=0.0)
        # The layout rides the command channel: per telemetry batch the
        # link costs its own latency, the paper's ~3 ms.
        per_batch = telemetry.total_latency_s / telemetry.messages_sent
        assert per_batch == pytest.approx(0.003)
        assert commands.messages_sent == 1


class TestAutoFlushTiming:
    def test_auto_flush_uses_last_record_close_time(self):
        transport = Transport()
        agent = MonitoringAgent("var", transport)
        agent.batch_size = 2
        agent.observe_many([access(t=5)])
        agent.observe_many([access(t=9)])
        batch = transport.receive()
        assert batch.sent_at == pytest.approx(10.0)  # close of t=9 access

    def test_observed_counter_survives_flushes(self):
        agent = MonitoringAgent("var", Transport())
        agent.batch_size = 1
        for t in (1, 3, 5):
            agent.observe_many([access(t=t)])
        assert agent.observed == 3
        assert agent.buffered == 0


class TestControlAgentFailureTolerance:
    def test_unsatisfiable_moves_skipped_not_fatal(self):
        cluster = small_cluster()
        cluster.add_file(1, "p", GB, "var")
        cluster.set_device_available("file0", False)
        agent = ControlAgent(cluster)
        moves = agent.execute(
            LayoutCommand(layout={1: "file0"}, issued_at=0.0)
        )
        assert moves == []
        assert cluster.file(1).device == "var"
