"""The engine on the Z = 13 EOS feature set (section VIII configuration)."""

import pytest

from repro.core.config import GeomancyConfig
from repro.core.engine import DRLEngine
from repro.features.schema import EOS_MODEL_FEATURES
from repro.replaydb.db import ReplayDB
from repro.workloads.eos import EOSTraceSynthesizer


@pytest.fixture(scope="module")
def eos_engine():
    records = EOSTraceSynthesizer(seed=3).records(1200)
    config = GeomancyConfig(
        features=EOS_MODEL_FEATURES,
        epochs=25,
        training_rows=1200,
        learning_rate=0.05,
        smoothing_window=50,
        seed=0,
    )
    engine = DRLEngine(config)
    db = ReplayDB()
    db.insert_accesses(records)
    report = engine.train(db)
    return engine, db, report


class TestEOSConfiguration:
    def test_z_is_thirteen(self, eos_engine):
        engine, *_ = eos_engine
        assert engine.config.z == 13

    def test_training_converges(self, eos_engine):
        *_, report = eos_engine
        assert not report.diverged

    def test_error_in_usable_band(self, eos_engine):
        # Over a short slice the smoothed EOS target is so stable that even
        # a constant predictor lands ~7% error; the model must at least
        # match that regime (the paper's EOS model reports similar bands).
        *_, report = eos_engine
        assert report.test_mare < 15.0

    def test_extra_telemetry_feeds_features(self, eos_engine):
        engine, db, _ = eos_engine
        # rt/nrc etc. come from each record's extra telemetry, which the
        # ReplayDB window decodes for the pipeline.
        matrix = engine.pipeline.feature_matrix_from_columns(db.access_columns(
            ids=range(1, 11), extra=engine.pipeline.extra_features
        ))
        assert matrix.shape == (10, 13)

    def test_location_probe_works_with_eos_features(self, eos_engine):
        engine, db, _ = eos_engine
        scores = engine.predict_throughput_matrix(
            db.access_columns(limit=1, extra=engine.pipeline.extra_features),
            [0, 1, 2],
        )
        assert scores.shape == (1, 3)
