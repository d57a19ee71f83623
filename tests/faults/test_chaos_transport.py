"""Tests for a transport carrying the fault stage and the daemon surviving it."""

import logging

import pytest

from repro.agents.daemon import InterfaceDaemon
from repro.agents.monitoring import MonitoringAgent
from repro.agents.messages import CorruptMessage
from repro.agents.transport import Transport
from repro.errors import TransportError
from repro.experiments.facade import Faults, run_facade
from repro.experiments.harness import make_experiment_config
from repro.experiments.spec import TEST_SCALE
from repro.faults.chaos_transport import FaultStage
from repro.observability import metrics
from repro.replaydb.db import ReplayDB
from repro.replaydb.records import AccessRecord


def chaos(**rates):
    return Transport(faults=FaultStage(**rates))


def make_record(n=0):
    return AccessRecord(
        fid=n, fsid=0, device="a", path=f"f{n}", rb=100, wb=0,
        ots=n, otms=0, cts=n + 1, ctms=0,
    )


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"drop_rate": -0.1},
            {"delay_rate": 1.5},
            {"reorder_rate": 2.0},
            {"corrupt_rate": -1.0},
        ],
    )
    def test_rates_out_of_range_rejected(self, kwargs):
        with pytest.raises(TransportError):
            FaultStage(**kwargs)


class TestFaults:
    def test_no_faults_behaves_like_base_transport(self):
        transport = chaos()
        for n in range(5):
            transport.send(n)
        assert transport.receive_all() == [0, 1, 2, 3, 4]
        assert transport.messages_sent == 5
        link = transport.faults
        assert (link.dropped, link.delayed, link.corrupted) == (0, 0, 0)

    def test_certain_drop_loses_everything_but_charges_the_network(self):
        transport = chaos(drop_rate=1.0)
        for n in range(4):
            transport.send(n)
        assert transport.receive_all() == []
        assert transport.faults.dropped == 4
        assert transport.messages_sent == 4

    def test_delayed_messages_arrive_on_the_next_drain(self):
        transport = chaos(delay_rate=1.0)
        transport.send("late")
        assert len(transport.faults.held) == 1
        assert transport.receive_all() == []
        assert len(transport.faults.held) == 0
        assert transport.receive_all() == ["late"]
        assert transport.faults.delayed == 1

    def test_certain_corruption_mangles_every_message(self):
        transport = chaos(corrupt_rate=1.0)
        transport.send("payload")
        (received,) = transport.receive_all()
        assert isinstance(received, CorruptMessage)
        assert transport.faults.corrupted == 1

    def test_certain_reorder_permutes_but_preserves_the_set(self):
        transport = chaos(reorder_rate=1.0, seed=0)
        sent = list(range(20))
        for n in sent:
            transport.send(n)
        drained = transport.receive_all()
        assert sorted(drained) == sent
        assert transport.faults.reordered_drains == 1

    def test_single_message_is_never_reordered(self):
        transport = chaos(reorder_rate=1.0)
        transport.send("only")
        assert transport.receive_all() == ["only"]
        assert transport.faults.reordered_drains == 0

    def test_fixed_seed_reproduces_the_loss_pattern(self):
        def survivors(seed):
            transport = chaos(
                drop_rate=0.3, delay_rate=0.2, corrupt_rate=0.1, seed=seed
            )
            for n in range(40):
                transport.send(n)
            first = transport.receive_all()
            return first + transport.receive_all()

        assert survivors(5) == survivors(5)
        assert survivors(5) != survivors(6)


class TestDaemonUnderChaos:
    def test_daemon_dead_letters_corrupted_batches(self):
        db = ReplayDB()
        transport = chaos(corrupt_rate=1.0)
        daemon = InterfaceDaemon(db, transport, Transport())
        agent = MonitoringAgent("a", transport)
        agent.observe_many([make_record()])
        agent.flush(at=2.0)
        assert daemon.pump_telemetry() == 0
        assert daemon.dead_letters == 1
        assert db.access_count() == 0

    def test_a_corrupting_link_dead_letters_through_run_facade(
        self, caplog, monkeypatch
    ):
        """The daemon's safety net fires in a whole facade run: every
        corrupted batch it drains is counted in ``daemon.dead_letters``
        and the metric read off it and logged at WARNING, and only landed
        batches reach the provenance ledger."""
        # Capture at the daemon's own logger, whatever an earlier
        # configure() did to the ``repro`` root's handlers.
        daemon_log = logging.getLogger("repro.agents.daemon")
        monkeypatch.setattr(daemon_log, "propagate", False)
        daemon_log.addHandler(caplog.handler)
        try:
            run = run_facade(
                make_experiment_config(TEST_SCALE, provenance_enabled=True),
                scale=TEST_SCALE, seed=0,
                faults=Faults(link=dict(corrupt_rate=0.2)),
            )
        finally:
            daemon_log.removeHandler(caplog.handler)
        geo = run.geo
        dead = geo.daemon.dead_letters
        assert dead > 0
        counters = metrics.snapshot(geo, run.runner, run.injector)["counters"]
        assert counters["repro_agents_dead_letters_total"] == dead
        warnings = [
            r for r in caplog.records
            if r.levelno == logging.WARNING and "dead-lettered" in r.message
        ]
        assert len(warnings) == dead
        assert dead <= geo.telemetry.faults.corrupted
        assert len(geo.ledger.batches) == geo.daemon.batches_ingested

    def test_daemon_survives_drops_and_keeps_the_rest(self):
        db = ReplayDB()
        transport = chaos(drop_rate=0.5, seed=1)
        daemon = InterfaceDaemon(db, transport, Transport())
        agent = MonitoringAgent("a", transport)
        for n in range(10):
            agent.observe_many([make_record(n)])
            agent.flush(at=float(n) + 1.5)
        stored = daemon.pump_telemetry()
        assert stored == db.access_count()
        assert 0 < stored < 10
        assert transport.faults.dropped == 10 - stored
