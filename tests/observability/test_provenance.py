"""Unit tests for the causal context and the provenance ledger."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.observability import provenance
from repro.observability.provenance import (
    BATCH_OUTCOMES,
    IN_FLIGHT,
    BatchProvenance,
    CausalContext,
    DecisionProvenance,
    ProvenanceLedger,
)


def decision(decision_id="d:1", trace_id="cmd:1", movement_ids=(1, 2), **kw):
    defaults = dict(
        kind="decision",
        run_index=5,
        t=100.0,
        window_lo=10,
        window_hi=40,
        feature_digest="abcd" * 4,
        candidates={0: {0: 1.0, 1: 2.0}},
        chosen={0: "tmp"},
        train_mode="scratch",
        train_seconds=0.5,
        test_mare=12.0,
        skillful=True,
        movement_duration_s=1.5,
    )
    defaults.update(kw)
    return DecisionProvenance(
        decision_id=decision_id,
        trace_id=trace_id,
        movement_ids=list(movement_ids),
        **defaults,
    )


class TestCausalContext:
    def test_batch_ids_are_deterministic_per_device(self):
        causal = CausalContext()
        assert causal.stamp_batch("var", 3, 1.0) == "b:var:1"
        assert causal.stamp_batch("tmp", 3, 1.0) == "b:tmp:1"
        assert causal.stamp_batch("var", 3, 2.0) == "b:var:2"
        assert causal.stamp_command() == "cmd:1"
        assert causal.stamp_command() == "cmd:2"

    def test_resolve_ingested_records_rowid_span_and_delay(self):
        causal = CausalContext()
        bid = causal.stamp_batch("var", 5, 10.0)
        causal.resolve(
            bid, "ingested", drained_at=12.5, rowid_lo=1, rowid_hi=5
        )
        batch = causal.batch(bid)
        assert batch.outcome == "ingested"
        assert batch.queue_delay_s == 2.5
        assert batch.covers_rowid(3) and not batch.covers_rowid(6)
        assert causal.resolved == {"ingested": 1}
        assert causal.in_flight() == []

    def test_resolve_unknown_or_none_is_a_no_op(self):
        causal = CausalContext()
        causal.resolve(None, "ingested")
        causal.resolve("b:ghost:1", "chaos-drop")
        assert causal.resolved == {}

    def test_invalid_outcome_rejected(self):
        causal = CausalContext()
        bid = causal.stamp_batch("var", 1, 0.0)
        with pytest.raises(ConfigurationError):
            causal.resolve(bid, "vanished")

    def test_re_resolution_keeps_history(self):
        # dead-letter -> requeue -> ingested must keep the full story
        causal = CausalContext()
        bid = causal.stamp_batch("var", 2, 0.0)
        causal.resolve(bid, "dead-letter", drained_at=1.0)
        causal.resolve(bid, "ingested", drained_at=2.0, rowid_lo=1, rowid_hi=2)
        batch = causal.batch(bid)
        assert batch.outcome == "ingested"
        assert "previously:dead-letter" in batch.notes

    def test_notes_attach_without_resolving(self):
        causal = CausalContext()
        bid = causal.stamp_batch("var", 1, 0.0)
        causal.note(bid, "chaos-delay")
        assert causal.batch(bid).notes == ["chaos-delay"]
        assert causal.batch(bid).outcome == IN_FLIGHT


class TestLedgerBounds:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ProvenanceLedger(max_entries=0)
        assert provenance.ROTATE_BYTES >= 4096

    def test_batches_evict_oldest(self):
        ledger = ProvenanceLedger(max_entries=2)
        causal = CausalContext(ledger)
        ids = [causal.stamp_batch("var", 1, float(i))
               for i in range(3)]
        assert ids[0] not in ledger.batches
        assert ids[1] in ledger.batches and ids[2] in ledger.batches
        assert ledger.batches_evicted == 1


class TestLedgerPersistence:
    def test_batches_persist_on_resolution_only(self, tmp_path):
        path = tmp_path / "prov.jsonl"
        causal = CausalContext(ProvenanceLedger(path))
        bid = causal.stamp_batch("var", 1, 0.0)
        assert not path.exists()
        causal.resolve(bid, "chaos-drop")
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["batch_id"] for l in lines] == [bid]

    def test_load_round_trips_and_latest_line_wins(self, tmp_path):
        path = tmp_path / "prov.jsonl"
        ledger = ProvenanceLedger(path)
        causal = CausalContext(ledger)
        bid = causal.stamp_batch("var", 3, 0.0)
        causal.resolve(bid, "dead-letter", drained_at=1.0)
        causal.resolve(bid, "ingested", drained_at=2.0,
                       rowid_lo=10, rowid_hi=12)
        ledger.record_decision(decision(movement_ids=[1]))
        loaded = ProvenanceLedger.load(path)
        assert loaded.batches[bid].outcome == "ingested"
        assert loaded.batches[bid].rowid_hi == 12
        assert loaded.movement_ids() == [1]
        # Loading never re-appends to the file it read.
        size = path.stat().st_size
        loaded.record_decision_loaded(decision("d:2", movement_ids=[9]))
        assert path.stat().st_size == size

    def test_rotation_keeps_bounded_disk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(provenance, "ROTATE_BYTES", 4096)
        path = tmp_path / "prov.jsonl"
        ledger = ProvenanceLedger(path)
        causal = CausalContext(ledger)
        for i in range(100):
            bid = causal.stamp_batch("var", 1, float(i))
            causal.resolve(bid, "ingested", drained_at=float(i),
                           rowid_lo=i + 1, rowid_hi=i + 1)
        rotated = path.with_suffix(path.suffix + ".1")
        assert rotated.exists()
        assert path.stat().st_size <= 4096 + 512
        # A load after rotation still sees recent history.
        loaded = ProvenanceLedger.load(path)
        assert loaded.batches

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ProvenanceLedger.load(tmp_path / "absent.jsonl")


class TestExplain:
    def _ledger(self):
        ledger = ProvenanceLedger()
        causal = CausalContext(ledger)
        bid = causal.stamp_batch("var", 30, 90.0)
        causal.resolve(bid, "ingested", drained_at=91.0,
                       rowid_lo=5, rowid_hi=34)
        other = causal.stamp_batch("tmp", 10, 90.0)
        causal.resolve(other, "ingested", drained_at=90.5,
                       rowid_lo=100, rowid_hi=109)
        ledger.record_decision(decision(movement_ids=[1, 2]))
        return ledger, bid, other

    def test_explain_walks_movement_to_window_batches(self):
        ledger, bid, other = self._ledger()
        chain = ledger.explain(2)
        assert chain["decision"]["decision_id"] == "d:1"
        batch_ids = [b["batch_id"] for b in chain["batches"]]
        assert batch_ids == [bid]          # rows 100..109 miss window 10..40
        assert chain["queue_delay"]["max_s"] == 1.0
        stages = {s["stage"]: s["seconds"] for s in chain["critical_path"]}
        assert stages["telemetry_queue"] == 1.0
        assert stages["train"] == 0.5
        assert stages["movement_apply"] == 1.5
        assert stages["total"] == 3.0

    def test_unknown_movement_returns_none_and_text_degrades(self):
        ledger, _, _ = self._ledger()
        assert ledger.explain(99) is None
        assert "no provenance recorded" in ledger.explain_text(99)

    def test_explain_text_renders_chain(self):
        ledger, bid, _ = self._ledger()
        text = ledger.explain_text(1)
        assert "movement 1 <- d:1" in text
        assert "ReplayDB rows 10..40" in text
        assert bid in text
        assert "critical path:" in text

    def test_retry_decision_has_no_window(self):
        ledger = ProvenanceLedger()
        ledger.record_decision(
            decision("d:2", "cmd:2", movement_ids=[7], kind="retry",
                     window_lo=None, window_hi=None, feature_digest=None,
                     candidates={}, train_mode=None, train_seconds=None)
        )
        chain = ledger.explain(7)
        assert chain["batches"] == []
        assert chain["decision"]["kind"] == "retry"


class TestChromeEvents:
    def test_causal_track_schema(self):
        ledger = ProvenanceLedger()
        causal = CausalContext(ledger)
        bid = causal.stamp_batch("var", 5, 1.0)
        causal.resolve(bid, "ingested", drained_at=2.0,
                       rowid_lo=1, rowid_hi=5)
        ledger.record_decision(decision(movement_ids=[1]))
        events = ledger.chrome_events()
        assert all(e["ph"] == "X" and e["pid"] == 2 for e in events)
        batch_event = next(e for e in events if e["tid"] == 1)
        assert batch_event["args"]["rowids"] == [1, 5]
        decision_event = next(e for e in events if e["tid"] == 2)
        assert decision_event["args"]["movement_ids"] == [1]

    def test_in_flight_batches_are_not_exported(self):
        ledger = ProvenanceLedger()
        CausalContext(ledger).stamp_batch("var", 1, 0.0)
        assert ledger.chrome_events() == []


class TestSerialization:
    def test_batch_round_trip(self):
        batch = BatchProvenance(
            batch_id="b:var:1", device="var", records=3,
            sent_at=1.0, outcome="ingested",
            drained_at=2.0, rowid_lo=1, rowid_hi=3, notes=["chaos-delay"],
        )
        assert BatchProvenance.from_dict(batch.to_dict()) == batch

    def test_decision_round_trip_restores_int_keys(self):
        entry = decision()
        restored = DecisionProvenance.from_dict(entry.to_dict())
        assert restored == entry
        assert list(restored.candidates) == [0]
        assert list(restored.candidates[0]) == [0, 1]

    def test_outcome_vocabulary_is_stable(self):
        # repro explain and the dashboards key on these strings
        assert BATCH_OUTCOMES == (
            "ingested", "dead-letter", "chaos-drop", "chaos-corrupt",
        )
