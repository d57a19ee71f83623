"""Event bus ordering, bounded history, and the recovery EventLog shim."""

import pytest

from repro.observability import Observability, use
from repro.observability.events import Event, EventBus
from repro.recovery.events import EventLog


class TestEvent:
    def test_round_trips_through_dict(self):
        event = Event(kind="fault-outage", t=12.5, step=3, detail={"device": "pic"})
        assert Event.from_dict(event.to_dict()) == event


class TestBus:
    def test_history_preserves_publish_order(self):
        bus = EventBus()
        for step in range(3):
            bus.emit("tick", t=float(step), step=step)
        assert [e.step for e in bus] == [0, 1, 2]
        assert bus.published == 3
        assert len(bus) == 3

    def test_history_bounded_by_max_history(self):
        bus = EventBus(max_history=2)
        for step in range(5):
            bus.emit("tick", t=float(step), step=step)
        assert [e.step for e in bus] == [3, 4]
        assert bus.published == 5

    def test_zero_history_keeps_nothing_but_delivers(self):
        bus = EventBus(max_history=0)
        event = bus.emit("tick", t=0.0, step=0)
        assert len(bus) == 0
        assert (event.kind, bus.published) == ("tick", 1)

    def test_negative_history_rejected(self):
        with pytest.raises(ValueError, match="max_history"):
            EventBus(max_history=-1)

    def test_of_kind_and_kinds(self):
        bus = EventBus()
        bus.emit("a", t=0.0, step=0)
        bus.emit("b", t=1.0, step=0)
        bus.emit("a", t=2.0, step=0)
        assert len(bus.of_kind("a")) == 2
        assert [e.kind for e in bus] == ["a", "b", "a"]


class TestEventLogShim:
    def test_emit_appends_locally_and_publishes(self):
        bus = EventBus()
        log = EventLog(bus=bus)
        event = log.emit("guardrail-trip", t=5.0, step=2, reason="nan-loss")
        assert log.events == (event,)
        assert bus.history == (event,)
        assert log.of_kind("guardrail-trip") == (event,)

    def test_default_log_bridges_to_installed_bus(self):
        obs = Observability()
        with use(obs):
            log = EventLog()
            log.emit("checkpoint-saved", t=1.0, step=1)
        assert [e.kind for e in obs.bus] == ["checkpoint-saved"]

    def test_disabled_default_bus_keeps_no_history(self):
        # Outside any use(): the process default is disabled and must not
        # accumulate events across runs.
        log = EventLog()
        log.emit("checkpoint-saved", t=1.0, step=1)
        assert len(log) == 1
        assert len(log.bus) == 0

    def test_state_dict_round_trip_does_not_republish(self):
        bus = EventBus()
        log = EventLog(bus=bus)
        log.emit("rollback", t=3.0, step=4, steps_undone=2)
        state = log.state_dict()

        restored_bus = EventBus()
        restored = EventLog(bus=restored_bus)
        restored.load_state_dict(state)
        assert restored.events == log.events
        assert len(restored_bus) == 0
