"""Unit tests for the provenance ledger."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.observability import provenance
from repro.observability.provenance import (
    BatchProvenance,
    DecisionProvenance,
    ProvenanceLedger,
)


def decision_fields(movement_ids=(1, 2), **kw):
    fields = dict(
        kind="decision",
        run_index=5,
        t=100.0,
        window_lo=10,
        window_hi=40,
        feature_digest="abcd" * 4,
        candidates={0: {0: 1.0, 1: 2.0}},
        chosen={0: "tmp"},
        movement_ids=list(movement_ids),
        train_mode="scratch",
        train_seconds=0.5,
        test_mare=12.0,
        skillful=True,
        movement_duration_s=1.5,
    )
    fields.update(kw)
    return fields


def land(ledger, device, records, sent_at, drained_at, lo):
    return ledger.record_batch(
        device, records, sent_at, drained_at, lo, lo + records - 1
    )


class TestCausalContext:
    """The ledger names what the two ReplayDB writers record."""

    def test_batch_ids_are_deterministic_per_device(self):
        ledger = ProvenanceLedger()
        assert land(ledger, "var", 3, 1.0, 1.0, 1).batch_id == "b:var:1"
        assert land(ledger, "tmp", 3, 1.0, 1.0, 4).batch_id == "b:tmp:1"
        assert land(ledger, "var", 3, 2.0, 2.0, 7).batch_id == "b:var:2"
        assert ledger.record_decision(**decision_fields()).decision_id == "d:1"
        assert ledger.record_decision(
            **decision_fields(movement_ids=[3])
        ).decision_id == "d:2"

    def test_resolve_ingested_records_rowid_span_and_delay(self):
        ledger = ProvenanceLedger()
        batch = land(ledger, "var", 5, 10.0, 12.5, 1)
        assert ledger.batches[batch.batch_id] is batch
        assert batch.queue_delay_s == 2.5
        assert (batch.rowid_lo, batch.rowid_hi) == (1, 5)
        assert batch.overlaps(3, 3) and not batch.overlaps(6, 9)

    def test_counters_are_the_checkpoint_state(self):
        """A resumed ledger goes on numbering where its twin left off."""
        ledger = ProvenanceLedger()
        land(ledger, "var", 1, 0.0, 0.0, 1)
        ledger.record_decision(**decision_fields())
        resumed = ProvenanceLedger()
        resumed.load_state_dict(json.loads(json.dumps(ledger.state_dict())))
        assert land(resumed, "var", 1, 1.0, 1.0, 2).batch_id == "b:var:2"
        assert land(resumed, "pic", 1, 1.0, 1.0, 3).batch_id == "b:pic:1"
        assert resumed.record_decision(
            **decision_fields(movement_ids=[3])
        ).decision_id == "d:2"


class TestLedgerBounds:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ProvenanceLedger(max_entries=0)
        assert provenance.ROTATE_BYTES >= 4096

    def test_batches_evict_oldest(self):
        ledger = ProvenanceLedger(max_entries=2)
        ids = [land(ledger, "var", 1, float(i), float(i), i + 1).batch_id
               for i in range(3)]
        assert ids[0] not in ledger.batches
        assert ids[1] in ledger.batches and ids[2] in ledger.batches


class TestLedgerPersistence:
    def test_batches_persist_on_resolution_only(self, tmp_path):
        """A batch gets a line when the daemon lands it; what the link
        drops or corrupts never does, and numbering has no gaps."""
        from repro.agents.daemon import InterfaceDaemon
        from repro.agents.messages import CorruptMessage, TelemetryBatch
        from repro.agents.transport import Transport
        from repro.replaydb.db import ReplayDB
        from repro.replaydb.records import AccessRecord

        path = tmp_path / "prov.jsonl"
        telemetry = Transport()
        daemon = InterfaceDaemon(
            ReplayDB(), telemetry, Transport(),
            ledger=ProvenanceLedger(path),
        )
        record = AccessRecord(
            fid=0, fsid=0, device="var", path="/d/0",
            rb=1000, wb=0, ots=0, otms=0, cts=1, ctms=0,
        )
        telemetry.send(TelemetryBatch("var", (record,), 0.0))
        assert not path.exists()
        telemetry.send(CorruptMessage())
        telemetry.send(TelemetryBatch("var", (record, record), 1.0))
        daemon.pump_telemetry(drained_at=2.0)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [(l["batch_id"], l["rowid_lo"], l["rowid_hi"]) for l in lines] == [
            ("b:var:1", 1, 1), ("b:var:2", 2, 3),
        ]
        assert "outcome" not in lines[0] and "notes" not in lines[0]

    def test_load_round_trips_and_latest_line_wins(self, tmp_path):
        path = tmp_path / "prov.jsonl"
        ledger = ProvenanceLedger(path)
        land(ledger, "var", 3, 0.0, 2.0, 10)
        ledger.record_decision(**decision_fields(movement_ids=[1]))
        # A resumed twin re-records the same batch under the same id.
        again = ProvenanceLedger(path)
        land(again, "var", 3, 0.0, 4.0, 10)
        loaded = ProvenanceLedger.load(path)
        assert list(loaded.batches) == ["b:var:1"]
        assert loaded.batches["b:var:1"].drained_at == 4.0
        assert loaded.batches["b:var:1"].rowid_hi == 12
        assert loaded.movement_ids() == [1]
        assert loaded.decisions[0].train_seconds == 0.5
        # Loading never re-appends to the file it read.
        size = path.stat().st_size
        loaded.record_decision(**decision_fields(movement_ids=[9]))
        assert path.stat().st_size == size

    def test_rotation_keeps_bounded_disk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(provenance, "ROTATE_BYTES", 4096)
        path = tmp_path / "prov.jsonl"
        ledger = ProvenanceLedger(path)
        for i in range(100):
            land(ledger, "var", 1, float(i), float(i), i + 1)
        rotated = path.with_suffix(path.suffix + ".1")
        assert rotated.exists()
        assert path.stat().st_size <= 4096 + 512
        # A load after rotation still sees recent history.
        loaded = ProvenanceLedger.load(path)
        assert loaded.batches

    def test_a_rotation_since_the_checkpoint_leaves_the_files_whole(
        self, tmp_path, monkeypatch
    ):
        """Without a rotation a resume cuts the file back to the
        checkpoint's size; after one, the checkpoint's end lies in
        ``.1`` and neither file is cut."""
        monkeypatch.setattr(provenance, "ROTATE_BYTES", 4096)
        path = tmp_path / "prov.jsonl"
        ledger = ProvenanceLedger(path)
        land(ledger, "var", 1, 0.0, 0.0, 1)
        state = ledger.state_dict()
        land(ledger, "var", 1, 1.0, 1.0, 2)
        ProvenanceLedger(path).load_state_dict(state)
        assert path.stat().st_size == state["file_bytes"]
        for i in range(1, 100):
            land(ledger, "var", 1, float(i), float(i), i + 1)
        rotated = path.with_suffix(path.suffix + ".1")
        sizes = (path.stat().st_size, rotated.stat().st_size)
        assert sizes[0] > state["file_bytes"]
        ProvenanceLedger(path).load_state_dict(state)
        assert (path.stat().st_size, rotated.stat().st_size) == sizes

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ProvenanceLedger.load(tmp_path / "absent.jsonl")


class TestExplain:
    def _ledger(self):
        ledger = ProvenanceLedger()
        bid = land(ledger, "var", 30, 90.0, 91.0, 5).batch_id
        other = land(ledger, "tmp", 10, 90.0, 90.5, 100).batch_id
        ledger.record_decision(**decision_fields(movement_ids=[1, 2]))
        return ledger, bid, other

    def test_explain_walks_movement_to_window_batches(self):
        ledger, bid, other = self._ledger()
        chain = ledger.explain(2)
        assert chain["decision"]["decision_id"] == "d:1"
        batch_ids = [b["batch_id"] for b in chain["batches"]]
        assert batch_ids == [bid]          # rows 100..109 miss window 10..40
        assert chain["queue_delay"]["max_s"] == 1.0
        stages = {s["stage"]: s["seconds"] for s in chain["critical_path"]}
        assert stages == {
            "telemetry_queue": 1.0, "movement_apply": 1.5, "total": 2.5,
        }

    def test_critical_path_total_is_simulated_time_only(self):
        """Training's host seconds neither join the total nor the span."""
        ledger, _, _ = self._ledger()
        stages = {
            s["stage"]: s["seconds"]
            for s in ledger.explain(1)["critical_path"]
        }
        assert "train" not in stages
        assert stages["total"] == (
            stages["telemetry_queue"] + stages["movement_apply"]
        )
        text = ledger.explain_text(1)
        assert "    train            0.500s (host time, not in total)" in text
        assert "    total            2.500s" in text
        span = next(e for e in ledger.chrome_events() if e["tid"] == 2)
        assert span["dur"] == 1.5e6

    def test_explain_text_repeats_across_runs_of_one_seed(self):
        """Apart from training's host-time row, what ``repro explain``
        prints is a function of the seed."""
        from repro.experiments.facade import run_facade
        from repro.experiments.harness import make_experiment_config
        from repro.experiments.spec import TEST_SCALE

        def explained():
            ledger = run_facade(
                make_experiment_config(
                    TEST_SCALE, seed=0, provenance_enabled=True
                ),
                scale=TEST_SCALE, seed=0,
            ).geo.ledger
            assert ledger.movement_ids()
            return [
                [
                    line for line in ledger.explain_text(m).splitlines()
                    if "host time" not in line
                ]
                for m in ledger.movement_ids()
            ]

        assert explained() == explained()

    def test_unknown_movement_returns_none_and_text_degrades(self):
        ledger, _, _ = self._ledger()
        assert ledger.explain(99) is None
        assert "no provenance recorded" in ledger.explain_text(99)

    def test_explain_text_renders_chain(self):
        ledger, bid, _ = self._ledger()
        text = ledger.explain_text(1)
        assert text.splitlines()[0] == (
            "movement 1 <- d:1 (decision, run 5, t=100.00s)"
        )
        assert "ReplayDB rows 10..40" in text
        assert bid in text
        assert "critical path:" in text

    def test_retry_decision_has_no_window(self):
        ledger = ProvenanceLedger()
        ledger.record_decision(
            **decision_fields(
                movement_ids=[7], kind="retry", window_lo=None,
                window_hi=None, feature_digest=None, candidates={},
                train_mode=None, train_seconds=None,
            )
        )
        chain = ledger.explain(7)
        assert chain["batches"] == []
        assert chain["decision"]["kind"] == "retry"
        assert "host time" not in ledger.explain_text(7)


class TestChromeEvents:
    def test_causal_track_schema(self):
        ledger = ProvenanceLedger()
        land(ledger, "var", 5, 1.0, 2.0, 1)
        ledger.record_decision(**decision_fields(movement_ids=[1]))
        events = ledger.chrome_events()
        assert all(e["ph"] == "X" and e["pid"] == 2 for e in events)
        batch_event = next(e for e in events if e["tid"] == 1)
        assert batch_event["args"]["rowids"] == [1, 5]
        decision_event = next(e for e in events if e["tid"] == 2)
        assert decision_event["args"]["movement_ids"] == [1]


class TestSerialization:
    def test_batch_round_trip(self):
        batch = BatchProvenance(
            batch_id="b:var:1", device="var", records=3,
            sent_at=1.0, drained_at=2.0, rowid_lo=1, rowid_hi=3,
        )
        assert BatchProvenance.from_dict(batch.to_dict()) == batch

    def test_decision_round_trip_restores_int_keys(self):
        entry = DecisionProvenance(decision_id="d:1", **decision_fields())
        restored = DecisionProvenance.from_dict(entry.to_dict())
        assert restored == entry
        assert list(restored.candidates) == [0]
        assert list(restored.candidates[0]) == [0, 1]
