"""The streamed scorer: blocks of the probe equal the one whole tensor.

``DRLEngine._score_locations`` never materialises the ``bases x
locations``-row probe; what it returns must still be, bit for bit, what
one ``model.predict`` over that whole probe gives (the e2e fingerprints
rest on it), at a fraction of the memory, with the same counters.
"""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import engine as engine_module
from repro.core.engine import PROBE_BLOCK_ROWS
from repro.observability.tracing import Recorder
from tests.core.test_engine_batched import engine_and_db
from tests.core.test_engine_online import engine_metric
from tests.oracles.decision_loop import propose_layout_reference
from tests.oracles.probe_grid import location_probe_batch
from tests.oracles.record_windows import file_records

RTOL = 1e-9
ATOL = 1e-9

#: bit equality holds per BLAS kernel configuration; tests/conftest.py
#: selects the benchmark's (one thread) unless the caller overrode it
single_threaded_blas = pytest.mark.skipif(
    os.environ.get("OPENBLAS_NUM_THREADS") != "1",
    reason="blocks equal the whole tensor bit for bit on one BLAS thread",
)


@pytest.fixture(scope="module")
def engine_db():
    return engine_and_db(1)


@pytest.fixture
def full_grid(monkeypatch):
    """Every candidate on every file's menu, however many there are: the
    probe these tests stream is the whole ``bases x locations`` grid."""
    monkeypatch.setattr(engine_module, "PROBE_TOP_DEVICES", 10**6)


def bases_per_block(n_fsids):
    """The engine's block rule, restated: whole 16-base groups, at least
    ``PROBE_BLOCK_ROWS`` probe rows."""
    return 16 * -(-PROBE_BLOCK_ROWS // (16 * n_fsids))


def random_bases(db, n_bases, seed):
    """``n_bases`` base accesses as a window of columns: the db's
    telemetry, resampled."""
    window = db.access_columns(limit=400)
    picks = np.random.default_rng(seed).integers(
        0, len(window["fsid"]), n_bases
    )
    return {name: column[picks] for name, column in window.items()}


def one_shot_scores(engine, bases, fsids):
    """What the parent computed: one probe tensor, one forward pass."""
    probe = location_probe_batch(engine.pipeline, bases, fsids)
    assert len(probe) == len(bases["fsid"]) * len(fsids)
    throughput = engine.adjuster.adjust(engine.pipeline.inverse_transform_target(
        engine.model.predict(probe).ravel()
    ))
    return throughput.reshape(-1, len(fsids))


class TestBlocksEqualWholeTensor:
    @single_threaded_blas
    @pytest.mark.parametrize("n_fsids", [2, 6, 7, 32, 33, 512])
    @pytest.mark.parametrize(
        "blocks, extra",
        [(1, -1), (1, 1), (2, -1), (2, 5), (3.5, 0)],
        ids=["block-1", "block+1", "2block-1", "2block+5", "3.5block"],
    )
    def test_production_blocks_bit_for_bit(
        self, engine_db, n_fsids, blocks, extra
    ):
        engine, db = engine_db
        n_bases = int(blocks * bases_per_block(n_fsids)) + extra
        fsids = list(range(1, n_fsids + 1))
        bases = random_bases(db, n_bases, seed=n_fsids)
        streamed = engine.predict_throughput_matrix(bases, fsids)
        assert streamed.shape == (n_bases, n_fsids)
        assert np.array_equal(streamed, one_shot_scores(engine, bases, fsids))

    @settings(max_examples=25, deadline=None)
    @given(
        n_fsids=st.integers(1, 96),
        blocks=st.floats(0.01, 3.2),
        seed=st.integers(0, 2**16),
    )
    def test_any_shape_same_choices(self, engine_db, n_fsids, blocks, seed):
        """Whatever the shape (and BLAS threading): scores within 1e-12
        relative -- the tolerance ``decision_loop.py`` grants -- and the
        same best location for every base."""
        engine, db = engine_db
        n_bases = max(1, int(blocks * bases_per_block(n_fsids)))
        fsids = list(range(1, n_fsids + 1))
        bases = random_bases(db, n_bases, seed)
        streamed = engine.predict_throughput_matrix(bases, fsids)
        whole = one_shot_scores(engine, bases, fsids)
        np.testing.assert_allclose(streamed, whole, rtol=1e-12, atol=0.0)
        assert np.array_equal(streamed.argmax(axis=1), whole.argmax(axis=1))


class TestNeverMaterialised:
    @pytest.mark.usefixtures("full_grid")
    def test_peak_allocation_is_one_block(self):
        """256 files x 8 samples x 32 devices: 65,536 probe rows whose
        first hidden layer alone is 42 MB as one tensor."""
        engine, db = engine_and_db(
            1, files=256, locations=32, rows=6000
        )
        fids = db.files()
        devices = {k: f"dev{k}" for k in range(1, 33)}
        _, raw = engine._gather_probe_bases(db, fids)
        assert len(raw) * len(devices) > 60_000
        tracemalloc.start()
        try:
            layout, _ = engine.propose_layout(db, fids, devices)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(layout) == len(fids)
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestRaggedSpansAgainstReference:
    """512 candidate locations put 16 bases in a block, so 6-row spans
    straddle block boundaries all along the probe."""

    @pytest.fixture(autouse=True)
    def six_samples(self, monkeypatch):
        monkeypatch.setattr(engine_module, "PROBE_SAMPLES", 6)

    @pytest.fixture(scope="class")
    def ragged(self):
        engine, db = engine_and_db(1, files=24, rows=150)
        counts = [
            len(file_records(db, fid, 6)) for fid in db.files()
        ]
        assert min(counts) < 6 == max(counts)  # short and full spans
        return engine, db

    def proposals(self, engine, db, fids, devices):
        layout, gains = engine.propose_layout(db, fids, devices)
        candidates = {}
        expected = propose_layout_reference(
            engine, db, fids, devices, candidates=candidates
        )
        return (layout, gains), expected, candidates

    def assert_close(self, got, expected):
        assert got.keys() == expected.keys()
        for key in expected:
            assert got[key] == pytest.approx(
                expected[key], rel=RTOL, abs=ATOL
            )

    @pytest.mark.usefixtures("full_grid")
    def test_spans_cross_block_boundaries(self, ragged):
        engine, db = ragged
        devices = {k: f"dev{k}" for k in range(1, 513)}
        fids = db.files() + [999]  # and a file with no telemetry
        per_fid, raw = engine._gather_probe_bases(db, fids)
        step = bases_per_block(len(devices))
        assert len(raw) >= 2 * step
        assert any(
            start // step != (stop - 1) // step
            for start, stop, _ in per_fid.values()
        )
        (layout, gains), (layout_r, gains_r), _ = self.proposals(
            engine, db, fids, devices
        )
        assert 999 not in layout
        assert layout == layout_r
        self.assert_close(gains, gains_r)

    def test_current_device_not_a_candidate(self, ragged):
        engine, db = ragged
        devices = {k: f"dev{k}" for k in (1, 2, 3)}  # telemetry has 4 too
        per_fid, _ = engine._gather_probe_bases(db, db.files())
        assert any(current == 4 for _, _, current in per_fid.values())
        (layout, gains), (layout_r, gains_r), _ = self.proposals(
            engine, db, db.files(), devices
        )
        assert layout == layout_r
        self.assert_close(gains, gains_r)

    def test_provenance_candidates_match(self, ragged):
        engine, db = ragged
        devices = {k: f"dev{k}" for k in range(1, 5)}
        plain = engine.propose_layout(db, db.files(), devices)
        engine.capture_provenance = True
        try:
            captured, expected, candidates = self.proposals(
                engine, db, db.files(), devices
            )
        finally:
            engine.capture_provenance = False
        assert captured == plain
        assert captured[0] == expected[0]
        assert engine.last_candidates.keys() == candidates.keys()
        for fid, scores in candidates.items():
            self.assert_close(engine.last_candidates[fid], scores)


class TestCountersAndSpans:
    @pytest.mark.usefixtures("full_grid")
    def test_totals_are_the_whole_probe_and_one_span_per_call(self):
        engine, db = engine_and_db(1, files=64, rows=1200)
        devices = {k: f"dev{k}" for k in range(1, 513)}
        _, raw = engine._gather_probe_bases(db, db.files())
        rows = len(raw) * len(devices)
        assert len(raw) >= 2 * bases_per_block(len(devices))  # many blocks
        names = (
            "repro_nn_predictions_total",
            "repro_nn_forward_rows_total",
            "repro_features_probe_rows_total",
        )
        before = [engine_metric(engine, name) for name in names]
        recorder = Recorder()
        recorder.wrap(engine, "engine")
        recorder.wrap(engine.model, "nn")
        recorder.measure(lambda: engine.propose_layout(db, db.files(), devices))
        after = [engine_metric(engine, name) for name in names]
        assert [a - b for a, b in zip(after, before)] == [rows] * 3
        # One streamed pass over the probe: a forward pass per block, all
        # of them inside the one propose_layout call.
        (call,) = [s for s in recorder.spans if s[0] == "engine.propose_layout"]
        predicts = [s for s in recorder.spans if s[0] == "nn.predict"]
        assert len(predicts) == len(raw) // bases_per_block(len(devices))
        assert all(
            call[2] <= s[2] and s[2] + s[3] <= call[2] + call[3]
            for s in predicts
        )
