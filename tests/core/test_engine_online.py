"""Online continual-learning engine: oracle equivalence, cursors,
replay mixing, diverged cycles, checkpointing, telemetry."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import engine as engine_module
from repro.core.config import GeomancyConfig
from repro.core.engine import DRLEngine
from repro.errors import ConfigurationError, ModelError
from repro.nn.serialization import _weight_arrays, load_weights, save_weights
from repro.observability import metrics
from repro.observability.tracing import Recorder
from repro.replaydb.db import ReplayDB
from repro.replaydb.records import AccessRecord
from tests.nn.test_flat_parameters import assert_homed


def make_config(**overrides):
    base = dict(
        model_number=1,
        epochs=6,
        training_rows=400,
        smoothing_window=5,
        learning_rate=0.05,
        seed=3,
        online_learning=True,
    )
    base.update(overrides)
    return GeomancyConfig(**base)


def synthetic_decision_records(*, rows=1000, files=64, locations=6, seed=0):
    """A seeded telemetry population with a real location signal.

    Throughput scales linearly with the fsid (location k sustains about
    ``k * 50 MB/s``) plus noise, so a trained engine has an actual ranking
    to recover and the act/skip threshold sees realistic gain magnitudes.
    """
    rng = np.random.default_rng(seed)
    records = []
    t = 1_600_000_000
    for _ in range(rows):
        fid = int(rng.integers(0, files))
        fsid = int(rng.integers(1, locations + 1))
        rb = int(rng.integers(1 << 18, 1 << 22))
        wb = int(rng.integers(0, 1 << 20))
        base = 50e6 * fsid
        duration = (rb + wb) / (base * (1 + 0.05 * rng.standard_normal()))
        duration = max(duration, 1e-4)
        t += 2
        records.append(
            AccessRecord(
                fid=fid, fsid=fsid, device=f"dev{fsid}", path=f"/f{fid}",
                rb=rb, wb=wb, ots=t, otms=0,
                cts=t + int(duration),
                ctms=max(1, int((duration % 1) * 1000)),
            )
        )
    return records


def shifted_records(rows, *, seed, start_t, invert=False):
    """Synthetic telemetry; ``invert=True`` flips the location signal."""
    rng = np.random.default_rng(seed)
    records, t = [], start_t
    for _ in range(rows):
        fid = int(rng.integers(0, 32))
        fsid = int(rng.integers(1, 7))
        rb = int(rng.integers(1 << 18, 1 << 22))
        speed = 50e6 * ((7 - fsid) if invert else fsid)
        duration = max(rb / (speed * (1 + 0.05 * rng.standard_normal())), 1e-4)
        t += 2
        records.append(
            AccessRecord(
                fid=fid, fsid=fsid, device=f"dev{fsid}", path=f"/f{fid}",
                rb=rb, wb=0, ots=t, otms=0, cts=t + int(duration),
                ctms=max(1, int((duration % 1) * 1000)),
            )
        )
    return records


def engine_metric(engine: DRLEngine, name: str):
    """Metric ``name`` as the export reads it off a run whose Geomancy
    holds ``engine`` (the engine's own metrics read nothing else)."""
    (read,) = [metric.read for metric in metrics.METRICS if metric.name == name]
    return read(SimpleNamespace(engine=engine), None)


def weights_equal(a, b):
    wa, wb = _weight_arrays(a.model), _weight_arrays(b.model)
    return wa.keys() == wb.keys() and all(
        np.array_equal(wa[k], wb[k]) for k in wa
    )


@pytest.fixture
def db():
    with ReplayDB() as db:
        db.insert_accesses(synthetic_decision_records(rows=500, seed=0))
        yield db


class TestModeGates:
    def test_requires_online_config(self, db):
        engine = DRLEngine(make_config(online_learning=False))
        with pytest.raises(ModelError):
            engine.train_incremental(db)

    def test_online_rejects_recurrent_models(self):
        with pytest.raises(ConfigurationError):
            make_config(model_number=12)

    def test_train_still_works_under_online_config(self, db):
        report = DRLEngine(make_config()).train(db)
        assert report.mode == "scratch"


class TestOracleEquivalence:
    def test_first_incremental_epoch_is_from_scratch_train(self, db):
        config = make_config()
        scratch, online = DRLEngine(config), DRLEngine(config)
        report_a = scratch.train(db)
        report_b = online.train_incremental(db)
        assert report_a.test_mare == report_b.test_mare
        assert report_a.test_mare_std == report_b.test_mare_std
        assert weights_equal(scratch, online)
        fids = db.files()
        device_by_fsid = {k: f"dev{k}" for k in range(1, 7)}
        layout_a, gains_a = scratch.propose_layout(db, fids, device_by_fsid)
        layout_b, gains_b = online.propose_layout(db, fids, device_by_fsid)
        assert layout_a == layout_b
        assert gains_a == gains_b


class TestLayoutQuality:
    def test_online_recovers_the_location_signal_like_from_scratch(self):
        """Flat cost must not trade away layout quality.

        Location ``k`` sustains ``k * 50 MB/s``, so a layout's quality is
        its mean fsid over the fastest one: 1.0 puts every file on the
        fastest location.  A 1000-row base epoch, then three 512-row
        bursts each followed by an online decision epoch; a fresh engine
        retrained on the whole history is the yardstick.
        """
        locations, burst = 6, 512
        records = synthetic_decision_records(rows=1000 + 3 * burst, seed=0)
        device_by_fsid = {k: f"dev{k}" for k in range(1, locations + 1)}
        shared = dict(
            model_number=1, epochs=10, smoothing_window=5,
            learning_rate=0.05, seed=1,
        )

        def quality(layout):
            fsids = [int(device.removeprefix("dev")) for device in layout.values()]
            return float(np.mean(fsids)) / locations

        with ReplayDB() as db:
            db.insert_accesses(records[:1000])
            online = DRLEngine(GeomancyConfig(
                **shared, training_rows=1000, online_learning=True,
            ))
            online.train_incremental(db)
            for lo in range(1000, len(records), burst):
                db.insert_accesses(records[lo:lo + burst])
                report = online.train_incremental(db)
                assert report.mode == "incremental"
                layout, _ = online.propose_layout(db, db.files(), device_by_fsid)
            scratch = DRLEngine(
                GeomancyConfig(**shared, training_rows=len(records))
            )
            scratch.train(db)
            scratch_layout, _ = scratch.propose_layout(
                db, db.files(), device_by_fsid
            )
        assert quality(layout) >= 0.7
        assert quality(layout) >= quality(scratch_layout) - 0.15


class TestIncrementalCycle:
    def test_cursor_advances_and_fits_only_new_rows(self, db):
        engine = DRLEngine(make_config())
        engine.train_incremental(db)
        assert engine._hwm == db.max_rowid()
        db.insert_accesses(
            shifted_records(100, seed=1, start_t=1_600_010_000)
        )
        report = engine.train_incremental(db)
        assert report.mode == "incremental"
        assert report.new_rows == 100
        assert 0 < report.replayed_rows <= engine_module.REPLAY_SAMPLE_ROWS
        assert report.samples == report.new_rows + report.replayed_rows
        assert engine._hwm == db.max_rowid()

    def test_no_new_rows_is_a_noop(self, db):
        engine = DRLEngine(make_config())
        first = engine.train_incremental(db)
        again = engine.train_incremental(db)
        assert again is first

    def test_burst_bound_caps_consumed_rows(self, db, monkeypatch):
        monkeypatch.setattr(engine_module, "ONLINE_MAX_NEW_ROWS", 50)
        engine = DRLEngine(make_config())
        engine.train_incremental(db)
        db.insert_accesses(
            shifted_records(300, seed=2, start_t=1_600_010_000)
        )
        report = engine.train_incremental(db)
        assert report.new_rows == 50
        # Skipped older rows are never revisited: cursor is at the head.
        assert engine._hwm == db.max_rowid()


class TestDivergedCycles:
    @pytest.mark.parametrize("online", [False, True], ids=["scratch", "online"])
    def test_a_diverged_cycle_keeps_finite_weights(self, db, online):
        """One cycle at an absurd learning rate reports ``diverged`` but
        serves the weights it started from; the next cycle, at the
        normal rate, trains on from them and is healthy again."""
        engine = DRLEngine(make_config(online_learning=online))
        cycle = engine.train_incremental if online else engine.train
        t = 1_600_010_000
        reports = []
        for rate in (0.05, 1e6, 0.05):
            engine.config.learning_rate = rate
            before = engine.model._theta.copy()
            reports.append(cycle(db))
            assert np.all(np.isfinite(engine.model._theta))
            db.insert_accesses(shifted_records(90, seed=70, start_t=t))
            t += 10_000
        healthy, diverged, after = reports
        assert not healthy.diverged
        assert diverged.diverged
        assert np.isfinite(diverged.test_mare)
        assert not after.diverged
        assert not np.array_equal(before, engine.model._theta)


class TestCheckpointing:
    def test_state_round_trip_resumes_identically(self, db, tmp_path):
        config = make_config()
        a = DRLEngine(config)
        a.train_incremental(db)
        db.insert_accesses(
            shifted_records(90, seed=40, start_t=1_600_010_000)
        )
        a.train_incremental(db)

        save_weights(a.model, tmp_path / "w.npz")
        state = a.state_dict()
        b = DRLEngine(config)
        b.model.build(a.model.layers[0].params["W"].shape[0])
        load_weights(b.model, tmp_path / "w.npz")
        b.load_state_dict(state)
        assert b._hwm == a._hwm

        db.insert_accesses(
            shifted_records(90, seed=41, start_t=1_600_020_000)
        )
        report_a = a.train_incremental(db)
        report_b = b.train_incremental(db)
        assert report_a.test_mare == report_b.test_mare
        assert report_a.replayed_rows == report_b.replayed_rows
        assert weights_equal(a, b)


class TestWeightsStayViewsOfTheFlatVector:
    """Whatever restores weights must leave them where the optimizer
    updates them: a detached array would make training a silent no-op."""

    def test_cold_start_checkpoint_round_trip_and_rollback(self, db, tmp_path):
        config = make_config()
        a = DRLEngine(config)
        a.train_incremental(db)  # cold start: a full fit
        assert_homed(a.model)

        save_weights(a.model, tmp_path / "w.npz")
        b = DRLEngine(config)
        b.load_state_dict(a.state_dict())  # builds the model
        load_weights(b.model, tmp_path / "w.npz")
        assert_homed(b.model)
        assert weights_equal(a, b)

        db.insert_accesses(
            shifted_records(90, seed=60, start_t=1_600_010_000, invert=True)
        )
        for engine in (a, b):
            before = engine.model._theta.copy()
            engine.train_incremental(db)
            # the resumed model trains, on the vector its layers read
            assert not np.array_equal(before, engine.model._theta)
            assert_homed(engine.model)
        assert weights_equal(a, b)

        # a diverged cycle rolls back to the weights it started from
        db.insert_accesses(
            shifted_records(90, seed=61, start_t=1_600_020_000)
        )
        probe = np.random.default_rng(0).random((16, config.z))
        restored = b.model.predict(probe)
        b.config.learning_rate = 1e6
        assert b.train_incremental(db).diverged
        assert_homed(b.model)
        assert np.array_equal(restored, b.model.predict(probe))
        b.model.fit(probe, probe[:, 0], epochs=1)
        assert_homed(b.model)
        assert not np.array_equal(restored, b.model.predict(probe))


class TestTelemetry:
    def test_training_metrics_move(self, db):
        engine = DRLEngine(make_config())
        engine.train_incremental(db)
        db.insert_accesses(
            shifted_records(70, seed=50, start_t=1_600_010_000)
        )
        report = engine.train_incremental(db)
        rows = engine_metric(engine, "repro_engine_train_rows_total")
        seconds = engine_metric(engine, "repro_engine_train_seconds")
        assert rows >= 400 + report.samples
        assert seconds.count == 2

    def test_incremental_cycle_traced(self, db):
        engine = DRLEngine(make_config())
        recorder = Recorder()
        recorder.wrap(engine, "engine")
        recorder.wrap(engine.model, "nn")
        engine.train_incremental(db)
        db.insert_accesses(
            shifted_records(70, seed=51, start_t=1_600_010_000)
        )
        engine.train_incremental(db)
        # The bootstrap cycle and the incremental one each fit the model
        # inside their train_incremental call.
        cycles = [s for s in recorder.spans if s[0] == "engine.train_incremental"]
        fits = [s for s in recorder.spans if s[0] == "nn.fit"]
        assert len(cycles) == 2 and len(fits) == 2
        for cycle, fit in zip(cycles, fits):
            assert cycle[2] <= fit[2]
            assert fit[2] + fit[3] <= cycle[2] + cycle[3]
