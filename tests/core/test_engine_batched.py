"""The decision path vs. the per-file reference loop in ``tests/oracles``.

``propose_layout`` / ``predict_throughput_matrix`` must reproduce the
per-file loop (``tests/oracles/decision_loop.py``) over probe bases read
as records (``tests/oracles/record_windows.py``): identical layouts
always, and gains within ``atol=1e-9 + rtol * |gain|`` (BLAS picks
different matmul kernels for different batch heights, so the last bit of
a prediction may legally differ; everything around the matmul is
bitwise-deterministic).
"""

import math

import numpy as np
import pytest

from repro.core.config import GeomancyConfig
from repro.core.engine import DRLEngine, _ordered_span_sums
from repro.errors import ModelError
from repro.replaydb.db import ReplayDB
from tests.core.test_engine_online import synthetic_decision_records
from tests.oracles.decision_loop import (
    ordered_column_sum,
    propose_layout_reference,
)
from tests.oracles.record_features import record_columns
from tests.oracles.record_windows import RecordWindows

RTOL = 1e-9
ATOL = 1e-9

N_FILES = 24
N_LOCATIONS = 4


def engine_and_db(
    model_number, *, files=N_FILES, locations=N_LOCATIONS, rows=400,
    **overrides,
):
    """A trained engine and the ReplayDB it trained on."""
    params = dict(
        model_number=model_number,
        epochs=8,
        training_rows=400,
        smoothing_window=5,
        learning_rate=0.05,
        seed=1,
    )
    params.update(overrides)
    config = GeomancyConfig(**params)
    db = ReplayDB()
    db.insert_accesses(
        synthetic_decision_records(
            rows=rows, files=files, locations=locations, seed=3
        )
    )
    engine = DRLEngine(config)
    engine.train(db)
    return engine, db


def _device_map():
    return {k: f"dev{k}" for k in range(1, N_LOCATIONS + 1)}


@pytest.fixture(scope="module", params=[1, 14], ids=["dense", "recurrent"])
def engine_db(request):
    """One dense and one recurrent Table-I architecture."""
    return engine_and_db(request.param)


class TestProposeLayoutEquivalence:
    def test_layouts_identical(self, engine_db):
        engine, db = engine_db
        fids = db.files()
        layout_b, _ = engine.propose_layout(db, fids, _device_map())
        layout_r, _ = propose_layout_reference(engine, db, fids, _device_map())
        assert layout_b == layout_r

    def test_gains_within_tolerance(self, engine_db):
        engine, db = engine_db
        fids = db.files()
        _, gains_b = engine.propose_layout(db, fids, _device_map())
        _, gains_r = propose_layout_reference(engine, db, fids, _device_map())
        assert gains_b.keys() == gains_r.keys()
        for fid in gains_r:
            assert math.isclose(
                gains_b[fid], gains_r[fid], rel_tol=RTOL, abs_tol=ATOL
            ), f"fid {fid}: {gains_b[fid]!r} != {gains_r[fid]!r}"

    def test_matrix_matches_per_base_predictions(self, engine_db):
        engine, db = engine_db
        bases = db.recent_accesses(10)
        fsids = sorted(_device_map())
        matrix = engine.predict_throughput_matrix(
            record_columns(bases), fsids
        )
        assert matrix.shape == (len(bases), len(fsids))
        for i, base in enumerate(bases):
            row = engine.predict_throughput_matrix(
                record_columns([base]), fsids
            )[0]
            for j in range(len(fsids)):
                assert math.isclose(
                    float(matrix[i, j]), float(row[j]),
                    rel_tol=RTOL, abs_tol=ATOL,
                )

    def test_unseen_files_skipped_and_order_preserved(self, engine_db):
        engine, db = engine_db
        layout, gains = engine.propose_layout(
            db, [3, 999, 0], _device_map()
        )
        assert 999 not in layout
        assert list(layout) == [3, 0] == list(gains)

    def test_empty_db_yields_empty_proposal(self, engine_db):
        engine, _ = engine_db
        layout, gains = engine.propose_layout(
            ReplayDB(), [0, 1], _device_map()
        )
        assert layout == {} and gains == {}

    def test_untrained_engine_rejected(self):
        engine = DRLEngine(GeomancyConfig())
        with pytest.raises(ModelError):
            engine.propose_layout(ReplayDB(), [0], {1: "dev1"})


class TestRankingCorrelationBatched:
    def test_matches_per_base_loop(self, engine_db):
        """The batched correlation equals the legacy per-base recompute."""
        engine, db = engine_db
        device_by_fsid = _device_map()
        batched = engine.ranking_correlation(db, device_by_fsid)

        from repro.core.engine import _spearman

        observed = {
            fsid: db.average_throughput(device=device)
            for fsid, device in device_by_fsid.items()
        }
        fsids = sorted(observed)
        totals = {fsid: 0.0 for fsid in fsids}
        for base in db.recent_accesses(32):
            row = engine.predict_throughput_matrix(
                record_columns([base]), fsids
            )[0]
            for fsid, score in zip(fsids, row):
                totals[fsid] += float(score)
        legacy = _spearman(
            [totals[fsid] for fsid in fsids],
            [observed[fsid] for fsid in fsids],
        )
        assert batched == pytest.approx(legacy, abs=1e-12)


class TestColumnarFastPath:
    def test_gather_matches_record_extraction(self, engine_db):
        """The no-record read reproduces the record-built bases bitwise."""
        engine, db = engine_db
        fids = db.files()
        per_fid, raw = engine._gather_probe_bases(db, fids)
        expected_per_fid, expected = engine._gather_probe_bases(
            RecordWindows(db), fids
        )
        assert per_fid == expected_per_fid and set(per_fid) == set(fids)
        assert raw.shape == expected.shape
        assert np.array_equal(raw, expected)  # bitwise, not approx

    def test_record_fallback_for_extra_features(self):
        """An extra-telemetry feature set (its keys live in each row's
        JSON blob) still matches the record-reading reference loop."""
        records = [
            r._replace(extra={"rt": float(i % 7)})
            for i, r in enumerate(
                synthetic_decision_records(
                    rows=150, files=6, locations=3, seed=5
                )
            )
        ]
        config = GeomancyConfig(
            features=("rb", "wb", "fsid", "rt"),
            model_number=1, epochs=3, training_rows=150,
            smoothing_window=5, seed=1,
        )
        db = ReplayDB()
        db.insert_accesses(records)
        engine = DRLEngine(config)
        engine.train(db)
        assert engine.pipeline.extra_features == ("rt",)
        device_by_fsid = {k: f"dev{k}" for k in (1, 2, 3)}
        layout_b, gains_b = engine.propose_layout(
            db, db.files(), device_by_fsid
        )
        layout_r, gains_r = propose_layout_reference(
            engine, db, db.files(), device_by_fsid
        )
        assert layout_b == layout_r
        for fid in gains_r:
            assert math.isclose(
                gains_b[fid], gains_r[fid], rel_tol=RTOL, abs_tol=ATOL
            )

    def test_ordered_column_sum_matches_sequential(self):
        """Ragged spans, an empty one included: each span's sum is the
        oracle's row-by-row sum of it, bit for bit."""
        rng = np.random.default_rng(0)
        matrix = rng.uniform(1e7, 2e8, size=(40, 5))
        starts = np.array([0, 8, 9, 9, 17, 32])
        stops = np.array([8, 9, 9, 17, 32, 40])
        totals = _ordered_span_sums(matrix, starts, stops)
        assert totals.shape == (len(starts), matrix.shape[1])
        for total, start, stop in zip(totals, starts, stops):
            assert np.array_equal(
                total, ordered_column_sum(matrix[start:stop])
            )
        assert _ordered_span_sums(
            matrix, starts[:0], stops[:0]
        ).shape == (0, 5)
