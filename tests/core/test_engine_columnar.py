"""The engine's columnar learner path: same bits, no records.

``train`` reads the ReplayDB window as columns -- extra-telemetry
features included.  Reports, weights and provenance must agree bit for
bit with an engine reading records (``tests/oracles/record_windows.py``),
online included, and no decision epoch may build an ``AccessRecord``.
"""

from dataclasses import asdict

import pytest

from repro.core.config import GeomancyConfig
from repro.core.engine import DRLEngine, _digest
from repro.features.normalize import MinMaxNormalizer
from repro.features.schema import EOS_MODEL_FEATURES
from repro.replaydb.db import ReplayDB
from repro.workloads.eos import EOSTraceSynthesizer
from tests.core.test_engine_online import (
    make_config,
    shifted_records,
    synthetic_decision_records,
    weights_equal,
)
from tests.oracles.fit_loop import ReferenceSGD, reference_fit
from tests.oracles.record_features import record_feature_matrix
from tests.oracles.record_windows import RecordWindows

DEVICE_BY_FSID = {k: f"dev{k}" for k in range(1, 7)}


def report_fields(report) -> dict:
    fields = asdict(report)
    del fields["train_seconds"]  # wall time, not a decision
    return fields


def scratch_config(**overrides) -> GeomancyConfig:
    base = dict(
        epochs=8, training_rows=400, smoothing_window=5,
        learning_rate=0.05, seed=1,
    )
    base.update(overrides)
    return GeomancyConfig(**base)


@pytest.fixture
def db():
    with ReplayDB() as db:
        db.insert_accesses(synthetic_decision_records(rows=600, seed=0))
        yield db


def reference_loop_engine(config: GeomancyConfig) -> DRLEngine:
    """An engine on the original training loop (feed it ``RecordWindows``)."""
    engine = DRLEngine(config)
    model = engine.model

    def fit(x, y, *, learning_rate, **kwargs):
        return reference_fit(
            model, x, y, optimizer=ReferenceSGD(learning_rate), **kwargs,
        )

    model.fit = fit
    return engine


class TestTrainMatchesTrainOnRecords:
    def test_reports_weights_and_provenance(self, db):
        config = scratch_config()
        by_columns, by_records = DRLEngine(config), DRLEngine(config)
        by_columns.capture_provenance = by_records.capture_provenance = True
        for _ in range(2):  # cold start, then a warm-started cycle
            records = db.recent_accesses(config.training_rows)
            a = by_columns.train(db)
            b = by_records.train(RecordWindows(db))
            assert report_fields(a) == report_fields(b)
            assert weights_equal(by_columns, by_records)
            assert (
                by_columns.last_feature_digest
                == by_records.last_feature_digest
            )
            hi = db.max_rowid()
            assert by_columns.last_window == (hi - len(records) + 1, hi)
            assert all(type(v) is int for v in by_columns.last_window)
            db.insert_accesses(
                shifted_records(150, seed=4, start_t=1_600_010_000)
            )
        assert (
            by_columns.pipeline.state_dict() == by_records.pipeline.state_dict()
        )

    def test_digest_is_the_per_record_matrix(self, db):
        """Provenance digests name the matrix the record loops built."""
        config = scratch_config()
        engine = DRLEngine(config)
        engine.capture_provenance = True
        engine.train(db)
        records = db.recent_accesses(config.training_rows)
        raw = record_feature_matrix(config.features, records)
        assert engine.last_feature_digest == _digest(
            MinMaxNormalizer().fit(raw).transform(raw)
        )

    def test_reference_loop_and_record_readers_agree(self, db):
        config = scratch_config()
        lean, reference = DRLEngine(config), reference_loop_engine(config)
        assert report_fields(lean.train(db)) == report_fields(
            reference.train(RecordWindows(db))
        )
        assert weights_equal(lean, reference)

    def test_recurrent_model_windows(self, db):
        config = scratch_config(model_number=13, epochs=3)
        by_columns, by_records = DRLEngine(config), DRLEngine(config)
        a = by_columns.train(db)
        b = by_records.train(RecordWindows(db))
        assert report_fields(a) == report_fields(b)
        assert weights_equal(by_columns, by_records)

    def test_extra_telemetry_features_adapt_records(self):
        records = EOSTraceSynthesizer(seed=3).records(500)
        config = scratch_config(
            features=EOS_MODEL_FEATURES, training_rows=500,
            smoothing_window=20,
        )
        with ReplayDB() as db:
            db.insert_accesses(records)
            from_db, from_records = DRLEngine(config), DRLEngine(config)
            from_db.capture_provenance = True
            assert from_db.pipeline.extra_features
            a = from_db.train(db)
            b = from_records.train(RecordWindows(db))
            assert report_fields(a) == report_fields(b)
            assert weights_equal(from_db, from_records)
            assert from_db.last_window == (1, 500)
            fsids = sorted({r.fsid for r in records})[:3]
            correlation = from_db.ranking_correlation(
                db, {fsid: records[0].device for fsid in fsids}
            )
            assert -1.0 <= correlation <= 1.0


class TestOnlineCycles:
    def test_twenty_two_incremental_cycles(self, db):
        """Columns + lean step vs record readers + the original loop."""
        config = make_config()
        lean, reference = DRLEngine(config), reference_loop_engine(config)
        lean.capture_provenance = reference.capture_provenance = True
        t = 1_600_010_000
        modes = []
        for cycle in range(23):
            a = lean.train_incremental(db)
            b = reference.train_incremental(RecordWindows(db))
            assert report_fields(a) == report_fields(b), cycle
            assert weights_equal(lean, reference)
            assert lean.last_window == reference.last_window
            assert lean.last_feature_digest == reference.last_feature_digest
            modes.append(a.mode)
            db.insert_accesses(shifted_records(
                90, seed=40 + cycle, start_t=t, invert=cycle >= 12,
            ))
            t += 200
        assert modes == ["scratch"] + ["incremental"] * 22
        state_a, state_b = lean.state_dict(), reference.state_dict()
        for state in (state_a, state_b):
            del state["last_report"]["train_seconds"]
        assert state_a == state_b


class TestNoRecordIsMaterialised:
    """Live features, then EOS features (keys of each row's JSON blob)."""

    @pytest.fixture
    def no_records(self, monkeypatch):
        def refuse(db, positions):
            raise AssertionError("an AccessRecord was materialised")

        monkeypatch.setattr(ReplayDB, "_records", refuse)

    @pytest.fixture
    def cases(self, db):
        """``(db, feature overrides, fresh batches, device map)`` per set."""
        live_fresh = [
            shifted_records(80, seed=70 + k, start_t=1_600_010_000 + 200 * k)
            for k in range(3)
        ]
        records = EOSTraceSynthesizer(seed=3).records(840)
        devices = {r.fsid: r.device for r in records}
        with ReplayDB() as eos_db:
            eos_db.insert_accesses(records[:600])
            yield [
                (db, {}, live_fresh, DEVICE_BY_FSID),
                (
                    eos_db,
                    dict(features=EOS_MODEL_FEATURES, smoothing_window=20),
                    [records[lo:lo + 80] for lo in (600, 680, 760)],
                    {fsid: devices[fsid] for fsid in sorted(devices)[:4]},
                ),
            ]

    def test_scratch_decision_epoch(self, cases, no_records):
        for db, features, _, device_by_fsid in cases:
            engine = DRLEngine(scratch_config(**features))
            engine.capture_provenance = True
            engine.train(db)
            layout, gains = engine.propose_layout(
                db, db.files(), device_by_fsid
            )
            assert layout and gains
            assert -1.0 <= engine.ranking_correlation(db, device_by_fsid) <= 1.0
            with pytest.raises(AssertionError, match="materialised"):
                db.recent_accesses(1)  # the guard itself works

    def test_online_decision_epochs(self, cases, no_records):
        for db, features, fresh, device_by_fsid in cases:
            engine = DRLEngine(make_config(**features))
            engine.train_incremental(db)
            for batch in fresh:
                db.insert_accesses(batch)
                report = engine.train_incremental(db)
                assert report.mode == "incremental" and report.replayed_rows
                engine.propose_layout(db, db.files(), device_by_fsid)
                engine.ranking_correlation(db, device_by_fsid)
