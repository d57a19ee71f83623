"""Tests for the DRL engine."""

import numpy as np
import pytest

from repro.core.config import GeomancyConfig
from repro.core.engine import REFIT_EPOCHS, DRLEngine
from repro.errors import ModelError, ReplayDBError
from repro.replaydb.db import ReplayDB
from repro.replaydb.records import AccessRecord
from tests.oracles.probe_grid import location_probe_batch
from tests.oracles.record_features import record_columns, train_on_records


def synthetic_records(n=400, n_devices=3, seed=0):
    """Telemetry where device fsid determines throughput cleanly:
    fsid 0 slow, fsid 2 fast."""
    rng = np.random.default_rng(seed)
    records = []
    t = 100
    for i in range(n):
        fsid = i % n_devices
        rate = (fsid + 1) * 1e8  # bytes/s
        rb = int(rng.uniform(0.5, 1.5) * 1e8)
        duration = rb / rate
        cts = t + int(duration)
        ctms = int((duration - int(duration)) * 1000)
        if cts == t and ctms == 0:
            ctms = 1
        records.append(
            AccessRecord(
                fid=i % 6, fsid=fsid, device=f"dev{fsid}", path=f"f{i % 6}",
                rb=rb, wb=0, ots=t, otms=0, cts=cts, ctms=ctms,
            )
        )
        t = cts + 1
    return records


def small_config(**overrides):
    base = dict(
        epochs=60, training_rows=400, smoothing_window=5, learning_rate=0.05, seed=1,
    )
    base.update(overrides)
    return GeomancyConfig(**base)


@pytest.fixture(scope="module")
def trained_engine():
    engine = DRLEngine(small_config())
    records = synthetic_records()
    report = train_on_records(engine, records)
    return engine, records, report


class TestTraining:
    def test_report_fields(self, trained_engine):
        _, records, report = trained_engine
        assert report.samples == len(records)
        assert report.epochs == 60
        assert report.train_seconds > 0.0
        assert not report.diverged

    def test_learns_device_speed_signal(self, trained_engine):
        # fsid determines throughput 1:3 here; the model should land well
        # under a constant predictor's error.
        _, _, report = trained_engine
        assert report.test_mare < 40.0

    def test_accuracy_percent_reading(self, trained_engine):
        _, _, report = trained_engine
        assert report.accuracy_percent == pytest.approx(
            100.0 - report.test_mare
        )

    def test_train_from_db(self):
        engine = DRLEngine(small_config())
        db = ReplayDB()
        db.insert_accesses(synthetic_records(200))
        report = engine.train(db)
        assert report.samples == 200
        assert engine.trained

    def test_too_few_records_rejected(self):
        engine = DRLEngine(small_config())
        with pytest.raises(ModelError, match="at least 10"):
            train_on_records(engine, synthetic_records(5))

    def test_recurrent_model_trains(self):
        engine = DRLEngine(small_config(model_number=14, epochs=20))
        report = train_on_records(engine, synthetic_records(200))
        assert report.epochs == 20

    def test_warm_start_keeps_model_instance(self):
        engine = DRLEngine(small_config(epochs=5))
        records = synthetic_records(100)
        train_on_records(engine, records)
        first = engine.model
        train_on_records(engine, records)
        assert engine.model is first

    def test_warm_start_widens_normalization(self):
        engine = DRLEngine(small_config(epochs=5))
        train_on_records(engine, synthetic_records(100))
        first = engine.pipeline.state_dict()["x_norm"]
        train_on_records(engine, synthetic_records(150, seed=9))
        second = engine.pipeline.state_dict()["x_norm"]
        assert np.all(np.array(second["min"]) <= np.array(first["min"]))
        assert np.all(np.array(second["max"]) >= np.array(first["max"]))
        assert second != first
        train_on_records(engine, synthetic_records(100))
        assert engine.pipeline.state_dict()["x_norm"] == second

    def test_growing_stream_stays_in_unit_interval(self):
        """``ots`` (a default feature) only grows: after every retrain the
        newest window and its probe rows lie in [0, 1].  First-window
        bounds, frozen, extrapolated each later window past 1."""
        config = small_config(epochs=2, training_rows=100)
        assert "ots" in config.features
        engine, db = DRLEngine(config), ReplayDB()
        stream = synthetic_records(500)
        for stop in range(100, 501, 100):
            db.insert_accesses(stream[stop - 100 : stop])
            engine.train(db)
            window = db.access_columns(limit=config.training_rows)
            x = engine.pipeline.transform_features(window)
            bases, locations = engine.pipeline.build_location_probe_parts(
                engine.pipeline.feature_matrix_from_columns(window), [0, 1, 2]
            )
            probe = engine.pipeline.build_location_probe_block(
                bases, locations
            )
            for rows in (x, probe):
                assert rows.min() >= 0.0 and rows.max() <= 1.0


def spy_fit(engine) -> list[tuple[int, bool]]:
    """(epochs, validation given) of every later ``engine.model.fit``."""
    calls, fit = [], engine.model.fit

    def spy(x, y, *, epochs, validation=None, **kwargs):
        calls.append((epochs, validation is not None))
        return fit(x, y, epochs=epochs, validation=validation, **kwargs)

    engine.model.fit = spy
    return calls


class TestRefitBudget:
    """A model's first fit runs every epoch; a refit (the model already
    trained, so it warm-starts) stops on the validation plateau within
    ``REFIT_EPOCHS``."""

    def test_first_fit_runs_every_epoch_without_validation(self):
        engine = DRLEngine(small_config(epochs=REFIT_EPOCHS + 5))
        calls = spy_fit(engine)
        report = train_on_records(engine, synthetic_records(200))
        assert calls == [(REFIT_EPOCHS + 5, False)]
        assert report.epochs == REFIT_EPOCHS + 5

    @pytest.mark.parametrize(
        "epochs, budget", [(REFIT_EPOCHS + 5, REFIT_EPOCHS), (3, 3)]
    )
    def test_refit_stops_on_the_plateau_within_its_budget(self, epochs, budget):
        engine = DRLEngine(small_config(epochs=epochs))
        records = synthetic_records(200)
        train_on_records(engine, records)
        calls = spy_fit(engine)
        report = train_on_records(engine, records)
        assert calls == [(budget, True)]
        assert report.epochs <= budget


class TestPrediction:
    def test_per_location_predictions(self, trained_engine):
        engine, records, _ = trained_engine
        scores = engine.predict_throughput_matrix(record_columns([records[-1]]), [0, 1, 2])
        assert scores.shape == (1, 3)
        assert np.isfinite(scores).all()

    def test_faster_device_predicted_faster(self, trained_engine):
        engine, records, _ = trained_engine
        slow, fast = engine.predict_throughput_matrix(
            record_columns([records[-1]]), [0, 2]
        )[0]
        # fsid 2 serves 3x the throughput of fsid 0 in the training data.
        assert fast > slow

    def test_predict_before_train_rejected(self):
        engine = DRLEngine(small_config())
        with pytest.raises(ModelError, match="trained before"):
            engine.predict_throughput_matrix(
                record_columns(synthetic_records(1)), [0, 1]
            )

    def test_throughput_is_the_adjusted_prediction(self, trained_engine):
        """Section V-G: every score is the inverse-transformed prediction
        scaled by ``1 + sign * MAE``, the adjustment fitted on the
        held-out split."""
        engine, records, _ = trained_engine
        probe = location_probe_batch(
            engine.pipeline, record_columns(records[-3:]), [0, 1]
        )
        raw = engine.pipeline.inverse_transform_target(
            engine.model.predict(probe).ravel()
        )
        factor = 1.0 + engine.adjuster.sign * engine.adjuster.mae
        assert engine.adjuster.mae > 0
        np.testing.assert_array_equal(engine._throughput(probe), raw * factor)


class TestProposeLayout:
    def test_prefers_fast_device(self, trained_engine):
        engine, records, _ = trained_engine
        db = ReplayDB()
        db.insert_accesses(records)
        layout, gains = engine.propose_layout(
            db, [0, 1, 2], {0: "dev0", 1: "dev1", 2: "dev2"}
        )
        assert set(layout.values()) == {"dev2"}
        assert all(g >= 0.0 for g in gains.values())

    def test_unseen_files_skipped(self, trained_engine):
        engine, records, _ = trained_engine
        db = ReplayDB()
        db.insert_accesses(records)
        layout, _ = engine.propose_layout(
            db, [0, 999], {0: "dev0", 1: "dev1", 2: "dev2"}
        )
        assert 999 not in layout and 0 in layout

    def test_empty_candidates_rejected(self, trained_engine):
        engine, records, _ = trained_engine
        db = ReplayDB()
        db.insert_accesses(records)
        with pytest.raises(ModelError):
            engine.propose_layout(db, [0], {})


class TestRankingCorrelation:
    def test_spearman_helper(self):
        from repro.core.engine import _spearman
        assert _spearman([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]) == 1.0
        assert _spearman([1.0, 2.0, 3.0], [30.0, 20.0, 10.0]) == -1.0

    def test_spearman_length_mismatch(self):
        from repro.core.engine import _spearman
        with pytest.raises(ModelError):
            _spearman([1.0], [1.0, 2.0])

    def test_well_trained_model_positively_correlated(self, trained_engine):
        engine, records, _ = trained_engine
        db = ReplayDB()
        db.insert_accesses(records)
        corr = engine.ranking_correlation(
            db, {0: "dev0", 1: "dev1", 2: "dev2"}
        )
        # fsid determines throughput 1:2:3 in the synthetic telemetry and
        # the model learned it, so rankings must agree.
        assert corr > 0.5

    def test_single_device_returns_one(self, trained_engine):
        engine, records, _ = trained_engine
        db = ReplayDB()
        db.insert_accesses(records)
        assert engine.ranking_correlation(db, {0: "dev0"}) == 1.0

    def test_devices_without_telemetry_are_left_out(self, trained_engine):
        engine, records, _ = trained_engine
        db = ReplayDB()
        db.insert_accesses(records)
        assert engine.ranking_correlation(
            db, {0: "dev0", 7: "ghost", 8: "phantom"}
        ) == 1.0

    def test_closed_database_is_an_error_not_missing_telemetry(
        self, trained_engine
    ):
        """A read failure must not pass the gate as "nothing to rank"."""
        engine, records, _ = trained_engine
        db = ReplayDB()
        db.insert_accesses(records)
        db.close()
        with pytest.raises(ReplayDBError, match="closed"):
            engine.ranking_correlation(db, {0: "dev0", 1: "dev1", 2: "dev2"})

    def test_untrained_engine_rejected(self):
        engine = DRLEngine(small_config())
        with pytest.raises(ModelError):
            engine.ranking_correlation(ReplayDB(), {0: "a", 1: "b"})
