"""The recovery EventLog: the run's one event history."""

from repro.recovery.events import Event, EventLog


class TestEvent:
    def test_round_trips_through_dict(self):
        event = Event(kind="rescue", t=12.5, step=3, detail={"device": "pic"})
        assert Event.from_dict(event.to_dict()) == event


class TestEventLog:
    def test_emit_appends_in_order(self):
        log = EventLog()
        first = log.emit("guardrail-trip", t=5.0, step=2, reason="nan-loss")
        second = log.emit("rollback", t=6.0, step=3, steps_undone=1)
        assert log.events == (first, second)
        assert [e.kind for e in log] == ["guardrail-trip", "rollback"]
        assert len(log) == 2

    def test_of_kind_picks_one_kind_in_order(self):
        log = EventLog()
        for t, kind in enumerate(("a", "b", "a")):
            log.emit(kind, t=float(t), step=0)
        assert [e.t for e in log.of_kind("a")] == [0.0, 2.0]
        assert log.of_kind("c") == ()

    def test_state_dict_round_trip(self):
        log = EventLog()
        log.emit("rollback", t=3.0, step=4, steps_undone=2)
        restored = EventLog()
        restored.load_state_dict(log.state_dict())
        assert restored.events == log.events
