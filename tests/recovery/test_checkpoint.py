"""Tests for the atomic, checksummed, rotated checkpoint store."""

import json

import pytest

from repro.core.config import GeomancyConfig
from repro.errors import CheckpointCorruptError, RecoveryError, SimulatedCrash
from repro.experiments.facade import Checkpoints, resume_facade, run_facade
from repro.experiments.spec import TEST_SCALE
from repro.nn.model_zoo import build_model
from repro.recovery.checkpoint import (
    MANIFEST_NAME,
    REPLAY_NAME,
    STATE_NAME,
    CheckpointManager,
)
from repro.replaydb.db import ReplayDB
from repro.replaydb.records import AccessRecord


def _state(step):
    return {"step": step, "layout": {"0": "ssd", "1": "hdd"}}


def _access(fid=0, t=1.0):
    return AccessRecord(
        fid=fid, path=f"/f{fid}", ots=int(t), otms=0, cts=int(t) + 1,
        ctms=0, rb=100, wb=0, device="ssd", fsid=1,
    )


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        gen = mgr.save(3, _state(3))
        loaded = mgr.load(gen)
        assert loaded.step == 3
        assert loaded.state == _state(3)
        assert loaded.replay_path is None
        assert loaded.model_path is None

    def test_db_and_model_artifacts(self, tmp_path):
        db = ReplayDB()
        db.insert_accesses([_access()])
        model = build_model(1, z=6, seed=0)
        model.build(6)
        mgr = CheckpointManager(tmp_path)
        gen = mgr.save(1, _state(1), db=db, model=model)
        loaded = mgr.load(gen)
        assert loaded.replay_path is not None
        assert loaded.model_path is not None
        restored = ReplayDB.from_snapshot(loaded.replay_path)
        assert restored.access_count() == 1

    def test_duplicate_generation_rejected(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        mgr.save(1, _state(1))
        with pytest.raises(RecoveryError, match="already exists"):
            mgr.save(1, _state(1))

    def test_rotation_keeps_newest(self, tmp_path):
        mgr = CheckpointManager(tmp_path, keep=2)
        for step in (1, 2, 3, 4):
            mgr.save(step, _state(step))
        names = [p.name for p in mgr.generations()]
        assert names == ["gen-00000003", "gen-00000004"]


class TestCorruptionFallback:
    def test_bit_flip_falls_back_to_previous_generation(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        mgr.save(1, _state(1))
        newest = mgr.save(2, _state(2))
        blob = (newest / STATE_NAME).read_bytes()
        (newest / STATE_NAME).write_bytes(
            blob[:5] + bytes([blob[5] ^ 0xFF]) + blob[6:]
        )
        loaded = mgr.latest_valid()
        assert loaded.step == 1
        assert any("checksum mismatch" in w for w in loaded.warnings)
        assert any("falling back" in w for w in loaded.warnings)

    def test_truncated_artifact_detected(self, tmp_path):
        db = ReplayDB()
        db.insert_accesses([_access()])
        mgr = CheckpointManager(tmp_path)
        mgr.save(1, _state(1))
        newest = mgr.save(2, _state(2), db=db)
        replay = newest / REPLAY_NAME
        replay.write_bytes(replay.read_bytes()[:128])
        loaded = mgr.latest_valid()
        assert loaded.step == 1

    def test_missing_manifest_is_torn(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        mgr.save(1, _state(1))
        newest = mgr.save(2, _state(2))
        (newest / MANIFEST_NAME).unlink()
        loaded = mgr.latest_valid()
        assert loaded.step == 1
        assert any("torn" in w for w in loaded.warnings)

    def test_load_of_corrupt_generation_raises(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        gen = mgr.save(1, _state(1))
        (gen / STATE_NAME).write_text("garbage")
        with pytest.raises(CheckpointCorruptError):
            mgr.load(gen)

    def test_no_valid_generation_raises(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        with pytest.raises(RecoveryError, match="no valid checkpoint"):
            mgr.latest_valid()

    def test_discard_newer_clears_failed_generations(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        mgr.save(1, _state(1))
        newest = mgr.save(2, _state(2))
        (newest / STATE_NAME).write_text("garbage")
        assert mgr.discard_newer(1) == ["gen-00000002"]
        assert [p.name for p in mgr.generations()] == ["gen-00000001"]
        # The replayed step can now be re-published without collision.
        mgr.save(2, _state(2))
        assert mgr.latest_valid().step == 2

    def test_unsupported_format_version_skipped(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        mgr.save(1, _state(1))
        newest = mgr.save(2, _state(2))
        manifest = json.loads((newest / MANIFEST_NAME).read_text())
        manifest["format_version"] = 99
        (newest / MANIFEST_NAME).write_text(json.dumps(manifest))
        assert mgr.latest_valid().step == 1

    def test_format_2_generation_is_refused_before_its_config(self, tmp_path):
        """A format-2 checkpoint's config carries fields that are module
        constants now, a format-4 one's drift state lacks ``m2``, and a
        format-5 one's config still has the overload-plane fields beside
        a drift detector the engine no longer has, and a format-6 one's
        config has a causal-tracing switch apart from provenance, and a
        format-7 one's channel carries shed counters and a monitor backlog,
        and a format-8 one's pipeline state carries a normalisation mode,
        fitted features and min/range bounds, and a format-9 one's device
        stats carry every throughput sample, and a format-10 one's meta
        spreads the fault stage over flat keys, and a format-11 one's
        engine counts online updates, and a format-15 one's config
        carries the exploration rate and the adjustment switch; resuming
        names the format instead of dying inside
        ``GeomancyConfig(**config)``."""
        for version, state in (
            (2, {"meta": {"config": {"warm_start": True}}}),
            (4, {"engine": {"online": {"drift": {"n": 9, "mean": 1.0}}}}),
            (5, {
                "meta": {"config": {"telemetry_queue_capacity": 64}},
                "engine": {"online": {"drift": {"n": 9, "m2": 0.5}}},
            }),
            (6, {"meta": {"config": {"causal_tracing_enabled": True}}}),
            (7, {"system": {"channel": {
                "telemetry": {"shed": 0, "rejected": 0, "peak_pending": 0},
                "monitors": {"var": {"backlog": [], "backlog_parent": None}},
            }}}),
            (8, {"engine": {"pipeline": {
                "normalization": "running",
                "x_norm": {"count": 3, "mean": [1.0], "m2": [0.5]},
                "y_norm": {"min": [0.0], "range": [1.0]},
                "fitted_features": ["fsid"],
            }}}),
            (9, {"system": {"devices": {"var": {"stats": {
                "accesses": 2, "bytes_served": 10, "busy_time": 1.0,
                "throughput_samples": [4.0, 6.0],
            }}}}}),
            (10, {"meta": {"schedule_specs": [], "checkpoint_every": 5}}),
            (11, {"engine": {"online": {"hwm": 40, "updates": 3}}}),
            (13, {"system": {"provenance": {
                "batch_seq": {"var": 4}, "decision_seq": 2,
            }}}),
            (15, {"meta": {"config": {
                "exploration_rate": 0.1, "adjust_predictions": True,
            }}}),
        ):
            root = tmp_path / f"format-{version}"
            mgr = CheckpointManager(root)
            gen = mgr.save(1, state)
            manifest = json.loads((gen / MANIFEST_NAME).read_text())
            manifest["format_version"] = version
            (gen / MANIFEST_NAME).write_text(json.dumps(manifest))
            refused = f"unsupported format_version {version}"
            assert mgr.verify(gen) == [f"gen-00000001: {refused}"]
            with pytest.raises(RecoveryError, match=refused):
                mgr.latest_valid()
            with pytest.raises(RecoveryError, match=refused):
                resume_facade(root)


    def test_format_14_run_is_refused_before_its_config(self, tmp_path):
        """A format-14 run saved ``optimizer``, ``use_gap_scheduler`` and
        ``target`` with its config, which ``GeomancyConfig`` no longer
        takes: resuming it names the format, not a ``TypeError``."""
        with pytest.raises(SimulatedCrash):
            run_facade(
                GeomancyConfig(), scale=TEST_SCALE, seed=0,
                checkpoints=Checkpoints(
                    tmp_path, every=2, kill_at_run=2, kill_point="post-commit"
                ),
            )
        for gen in CheckpointManager(tmp_path).generations():
            state = json.loads((gen / STATE_NAME).read_text())
            config = state["meta"]["config"]
            config.update(optimizer="sgd", use_gap_scheduler=False,
                          target="throughput")
            (gen / STATE_NAME).write_text(json.dumps(state))
            manifest = json.loads((gen / MANIFEST_NAME).read_text())
            manifest["format_version"] = 14
            (gen / MANIFEST_NAME).write_text(json.dumps(manifest))
            with pytest.raises(TypeError, match="optimizer"):
                GeomancyConfig(**config)
        with pytest.raises(RecoveryError, match="unsupported format_version 14"):
            resume_facade(tmp_path)


class TestCrashAtomicity:
    def test_crash_before_manifest_leaves_old_generation(self, tmp_path):
        def die(barrier):
            if barrier == "staged":
                raise SimulatedCrash("kill mid-checkpoint")

        mgr = CheckpointManager(tmp_path)
        mgr.save(1, _state(1))
        mgr.fault_hook = die
        with pytest.raises(SimulatedCrash):
            mgr.save(2, _state(2))
        mgr.fault_hook = None
        # The torn save left only a staging dir; gen 1 is still the tip.
        assert [p.name for p in mgr.generations()] == ["gen-00000001"]
        assert mgr.latest_valid().step == 1

    def test_staging_leftovers_garbage_collected(self, tmp_path):
        def die(barrier):
            if barrier == "staged":
                raise SimulatedCrash("kill mid-checkpoint")

        mgr = CheckpointManager(tmp_path)
        mgr.fault_hook = die
        with pytest.raises(SimulatedCrash):
            mgr.save(1, _state(1))
        mgr.fault_hook = None
        assert any(p.name.startswith(".staging-") for p in tmp_path.iterdir())
        # The next successful save for the same step reuses and then
        # cleans the staging area.
        mgr.save(1, _state(1))
        assert not any(
            p.name.startswith(".staging-") for p in tmp_path.iterdir()
        )

    def test_model_artifact_checksummed(self, tmp_path):
        model = build_model(1, z=6, seed=0)
        model.build(6)
        mgr = CheckpointManager(tmp_path)
        mgr.save(1, _state(1))
        newest = mgr.save(2, _state(2), model=model)
        blob = bytearray((newest / "model.npz").read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        (newest / "model.npz").write_bytes(bytes(blob))
        assert mgr.latest_valid().step == 1

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(RecoveryError):
            CheckpointManager(tmp_path, keep=0)
