"""Tests for the bounded dead-letter store and its requeue path."""

import pytest

from repro.agents.daemon import InterfaceDaemon
from repro.agents.deadletter import DeadLetter, DeadLetterStore
from repro.agents.messages import TelemetryBatch
from repro.agents.transport import Transport
from repro.errors import AgentError
from repro.replaydb.db import ReplayDB
from repro.replaydb.records import AccessRecord


def access(device="var", fid=1, t=10, extra=None):
    return AccessRecord(
        fid=fid, fsid=0, device=device, path="p", rb=1000, wb=0,
        ots=t, otms=0, cts=t + 1, ctms=0, extra=extra or {},
    )


def batch(n=2, device="var", t=1.0):
    return TelemetryBatch(
        device=device,
        records=tuple(access(device, fid=i) for i in range(n)),
        sent_at=t,
    )


class TestRing:
    def test_bounded_ring_evicts_oldest(self):
        store = DeadLetterStore(capacity=2)
        for i in range(5):
            store.add(f"reason {i}", f"junk {i}", at=float(i))
        assert len(store) == 2
        assert store.total == 5
        assert store.evicted == 3
        assert [letter.reason for letter in store.entries()] == [
            "reason 3", "reason 4",
        ]

    def test_capacity_validated(self):
        with pytest.raises(AgentError):
            DeadLetterStore(capacity=0)

    def test_telemetry_payload_round_trips(self):
        store = DeadLetterStore()
        original = batch()
        letter = store.add("db rejected", original, at=3.0)
        rebuilt = letter.to_batch()
        assert rebuilt == original

    def test_foreign_message_not_replayable(self):
        store = DeadLetterStore()
        letter = store.add("corrupt", object(), at=1.0)
        assert letter.payload is None
        assert store.replayable() == []
        with pytest.raises(AgentError):
            letter.to_batch()


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "dead.jsonl"
        store = DeadLetterStore(capacity=3)
        store.add("bad", batch(t=1.0), at=1.0)
        store.add("corrupt", "junk", at=2.0)
        store.save(path)
        loaded = DeadLetterStore.load(path)
        assert len(loaded) == 2
        assert loaded.capacity == 3
        assert loaded.total == 2
        first = loaded.entries()[0]
        assert first.to_batch() == batch(t=1.0)
        assert loaded.entries()[1].payload is None

    def test_auto_persist_on_add(self, tmp_path):
        path = tmp_path / "dead.jsonl"
        store = DeadLetterStore(capacity=2, path=path)
        store.add("bad", batch(), at=1.0)
        assert DeadLetterStore.load(path).total == 1

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(AgentError):
            DeadLetterStore.load(tmp_path / "absent.jsonl")


class TestRequeue:
    def test_requeue_replays_through_daemon(self):
        store = DeadLetterStore()
        store.add("transient", batch(n=3, t=1.0), at=1.0)
        store.add("corrupt", "junk", at=2.0)
        transport = Transport()
        daemon = InterfaceDaemon(ReplayDB(), transport, Transport())
        assert store.requeue_into(transport) == 1
        assert daemon.pump_telemetry() == 3
        # The replayed letter is marked; a second requeue is a no-op.
        assert store.requeue_into(transport) == 0

    def test_dict_round_trip(self):
        letter = DeadLetter(reason="r", kind="str", at=1.5, summary="s")
        assert DeadLetter.from_dict(letter.to_dict()) == letter


class TestDaemon:
    def test_dead_letters_persist_to_store(self):
        store = DeadLetterStore(capacity=4)
        telemetry = Transport()
        daemon = InterfaceDaemon(
            ReplayDB(), telemetry, Transport(), dead_letter_store=store,
        )
        telemetry.send("not telemetry")
        daemon.pump_telemetry()
        assert len(store) == 1
        assert store.entries()[0].kind == "str"


class TestTraceJoin:
    def test_trace_id_is_captured_and_round_trips(self, tmp_path):
        store = DeadLetterStore()
        letter = store.add(
            "transient",
            TelemetryBatch(
                device="var", records=(access(),), sent_at=1.0,
                trace_id="b:var:7",
            ),
            at=1.0,
        )
        assert letter.trace_id == "b:var:7"
        path = store.save(tmp_path / "dead.jsonl")
        loaded = DeadLetterStore.load(path)
        assert loaded.entries()[0].trace_id == "b:var:7"
        # A requeue rebuilds the batch with the same id, so the original
        # chain picks up where it dead-lettered.
        assert loaded.entries()[0].to_batch().trace_id == "b:var:7"

    def test_foreign_messages_have_no_trace(self):
        store = DeadLetterStore()
        assert store.add("corrupt", "junk", at=2.0).trace_id is None
