"""End-to-end crash/restart/resume and guardrail acceptance tests.

Each scenario drives ``run_facade`` with a checkpoint stage at
TEST_SCALE: warm-up, measured Belle II loop, checkpoints, journal, and
(where enabled) the safe-mode guardrail and a fault stage.
"""

import json

import numpy as np
import pytest

from repro.experiments.facade import (
    JOURNAL_NAME,
    KILL_POINTS,
    Checkpoints,
    Faults,
    resume_facade,
    run_facade,
)
from repro.experiments.harness import make_experiment_config
from repro.experiments.spec import TEST_SCALE
from repro.recovery import guardrail
from repro.recovery.checkpoint import STATE_NAME
from repro.recovery.journal import LayoutJournal

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

KILL_AT = 10
CADENCE = 5
SCHEDULE = ("outage:file0@60+60",)


def recover(directory, *, seed=0, every=CADENCE, schedule=(),
            kill_point=None, **config):
    """A checkpointed facade run, killed at ``KILL_AT`` at ``kill_point``
    when one is given; ``config`` overrides the experiment config."""
    return run_facade(
        make_experiment_config(TEST_SCALE, seed=seed, **config),
        scale=TEST_SCALE,
        seed=seed,
        faults=Faults(schedule=schedule) if schedule else None,
        checkpoints=Checkpoints(
            directory, every=every,
            kill_at_run=KILL_AT if kill_point is not None else None,
            kill_point=kill_point,
        ),
    )


def _identical(resumed, baseline):
    assert resumed.final_layout == baseline.final_layout
    assert resumed.movement_fingerprint() == baseline.movement_fingerprint()
    assert resumed.mean_gbps == baseline.mean_gbps
    assert resumed.accesses == baseline.accesses


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    return recover(tmp_path_factory.mktemp("baseline"))


@pytest.fixture(scope="module")
def scheduled_baseline(tmp_path_factory):
    return recover(
        tmp_path_factory.mktemp("sched-baseline"), schedule=SCHEDULE
    )


class TestCrashRestartResume:
    @pytest.mark.parametrize("kill_point", KILL_POINTS)
    def test_resume_is_bit_for_bit_identical(
        self, tmp_path, baseline, kill_point
    ):
        from repro.errors import SimulatedCrash

        with pytest.raises(SimulatedCrash):
            recover(tmp_path, kill_point=kill_point)
        resumed = resume_facade(tmp_path)
        _identical(resumed, baseline)
        # post-commit dies after run 10's checkpoint lands; the other two
        # points must restart from the previous generation.
        expected = KILL_AT if kill_point == "post-commit" else KILL_AT - CADENCE
        assert resumed.resumed_from_step == expected

    def test_corrupt_newest_generation_falls_back(self, tmp_path, baseline):
        from repro.errors import SimulatedCrash

        with pytest.raises(SimulatedCrash):
            recover(tmp_path, kill_point="post-commit")
        state = tmp_path / f"gen-{KILL_AT:08d}" / STATE_NAME
        blob = state.read_bytes()
        state.write_bytes(blob[:9] + bytes([blob[9] ^ 0xFF]) + blob[10:])

        resumed = resume_facade(tmp_path)
        # Never a crash, never a silent bad load: the corrupt generation
        # is skipped with a logged warning and the run still completes
        # identically from the previous one.
        assert resumed.resumed_from_step == KILL_AT - CADENCE
        assert any("checksum mismatch" in w for w in resumed.warnings)
        assert any(
            e["kind"] == "checkpoint-corrupt" for e in resumed.events
        )
        _identical(resumed, baseline)

    def test_resume_replays_fault_schedule_exactly_once(
        self, tmp_path, scheduled_baseline
    ):
        from repro.errors import SimulatedCrash

        with pytest.raises(SimulatedCrash):
            recover(
                tmp_path, schedule=SCHEDULE, kill_point="mid-checkpoint"
            )
        resumed = resume_facade(tmp_path)
        # The injector cursor travels in the checkpoint: outages applied
        # before the crash are not re-fired, pending ones still fire.
        _identical(resumed, scheduled_baseline)

    def test_resumed_run_makes_the_same_per_file_reads(
        self, tmp_path, monkeypatch
    ):
        """The ReplayDB's per-file state is folded again from the restored
        rows, not checkpointed: every decision after the restore must
        read exactly the rows the uninterrupted run read."""
        from repro.errors import SimulatedCrash
        from repro.replaydb.db import ReplayDB
        from tests.oracles.sqlite_replaydb import assert_same_columns

        reads = []
        real = ReplayDB.recent_access_columns_per_file

        def recording(db, limit, fids, **kwargs):
            reads.append(real(db, limit, fids, **kwargs))
            return reads[-1]

        monkeypatch.setattr(
            ReplayDB, "recent_access_columns_per_file", recording
        )
        recover(tmp_path / "whole")
        whole = reads[:]
        with pytest.raises(SimulatedCrash):
            recover(tmp_path / "killed", kill_point="mid-checkpoint")
        del reads[:]
        resume_facade(tmp_path / "killed")
        assert 0 < len(reads) < len(whole)
        for got, want in zip(reads, whole[-len(reads):]):
            assert_same_columns(got, want)  # exact: refolded rows are rows

    def test_fractional_schedule_times_rejected(self, tmp_path):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError, match="absolute"):
            recover(tmp_path, schedule=("kill:file0@40%",))


class TestJournal:
    def test_every_dispatch_journaled_and_committed(
        self, tmp_path_factory, baseline
    ):
        path = None
        for item in tmp_path_factory.getbasetemp().glob("baseline*/"):
            candidate = item / JOURNAL_NAME
            if candidate.exists():
                path = candidate
        assert path is not None, "journal file missing from checkpoint dir"
        entries = LayoutJournal(path).entries()
        intents = [e for e in entries if e["kind"] == "intent"]
        commits = [e for e in entries if e["kind"] == "commit"]
        assert len(intents) > 0
        assert {e["txn"] for e in commits} == {e["txn"] for e in intents}
        assert LayoutJournal(path).pending_intents() == []

    def test_checkpoint_events_recorded(self, baseline):
        saved = [e for e in baseline.events if e["kind"] == "checkpoint-saved"]
        assert len(saved) == baseline.checkpoints_written
        assert baseline.checkpoints_written >= 1


class TestGuardrailAcceptance:
    def test_nan_loss_trips_on_first_control_step(self, tmp_path):
        # A pathological learning rate makes the very first training run
        # diverge; the guardrail must bench the learner on that same run.
        result = recover(
            tmp_path,
            every=0,
            guardrail_enabled=True,
            learning_rate=1e6,
        )
        assert result.guardrail_trips
        first = result.guardrail_trips[0]
        assert first["reason"] == "nan-loss"
        assert first["run_index"] == CADENCE  # first run that trains
        assert result.geo.fallback_runs > 0
        assert len(result.movements) == 0

    def test_throughput_collapse_trips_and_recovers(self, tmp_path, monkeypatch):
        # Killing the two busiest devices collapses realized throughput
        # far below the model's predictions; the regression window fills
        # and trips, then cooldown re-admits the learner.
        monkeypatch.setattr(guardrail, "WINDOW", 2)
        result = recover(
            tmp_path,
            every=0,
            guardrail_enabled=True,
            schedule=("kill:file0@80", "kill:pic@80"),
        )
        reasons = [t["reason"] for t in result.guardrail_trips]
        assert "throughput-regression" in reasons
        assert result.geo.fallback_runs >= 1
        assert result.geo.guardrail.mode == "learning"  # re-admitted

    def test_fallback_cycle_rescue_is_ledgered_as_a_rescue(
        self, tmp_path, monkeypatch
    ):
        # The learner is benched at its first control step (run 5) for
        # ten runs; file0 dies in between, so it is a fallback cycle that
        # rescues the stranded files.
        from repro.observability import metrics
        from repro.observability.provenance import ProvenanceLedger

        with monkeypatch.context() as patch:
            patch.setattr(guardrail, "COOLDOWN_RUNS", 10)
            result = recover(
                tmp_path / "ckpt",
                every=0,
                guardrail_enabled=True,
                learning_rate=1e6,
                schedule=("kill:file0@150",),
                provenance_enabled=True,
                provenance_path=str(tmp_path / "prov.jsonl"),
            )
        assert result.guardrail_trips[0]["run_index"] == 5
        assert result.geo.fallback_runs == 10 and result.rescued_files > 0
        decisions = ProvenanceLedger.load(tmp_path / "prov.jsonl").decisions
        assert "decision" not in {d.kind for d in decisions}
        rescues = [d for d in decisions if d.kind == "rescue"]
        assert rescues
        for entry in rescues:
            assert 5 < entry.run_index <= 15
            # Not a model decision: nothing of the engine's stale epoch.
            assert not entry.candidates
            assert entry.window_lo is None and entry.test_mare is None
            assert entry.guardrail_mode == "fallback"
        counters = metrics.snapshot(
            result.geo, result.runner, result.injector
        )["counters"]
        assert (
            counters["repro_engine_files_rescued_total"]
            == result.rescued_files
        )

        # A learner that works until the throughput collapses: what it
        # dispatched before the trip is ledgered under its own authority.
        monkeypatch.setattr(guardrail, "WINDOW", 2)
        tripped = recover(
            tmp_path / "ckpt-collapse",
            every=0,
            guardrail_enabled=True,
            schedule=("kill:file0@80", "kill:pic@80"),
            provenance_enabled=True,
            provenance_path=str(tmp_path / "prov-collapse.jsonl"),
        )
        trip_run = tripped.guardrail_trips[0]["run_index"]
        decisions = ProvenanceLedger.load(
            tmp_path / "prov-collapse.jsonl"
        ).decisions
        before = [
            d for d in decisions
            if d.kind == "decision" and d.run_index < trip_run
        ]
        assert before and {d.guardrail_mode for d in before} == {"learning"}
        rollbacks = [d for d in decisions if d.kind == "rollback"]
        assert rollbacks
        assert {d.guardrail_mode for d in rollbacks} == {"fallback"}

    def test_guardrail_not_below_static_baseline_under_chaos(
        self, tmp_path_factory
    ):
        # Seed pins one chaos realization where the pre-trip movement
        # overhead stays inside the margin; the guardrail trips at every
        # seed, but how much the learner's first (pre-bench) moves cost
        # is environment luck.
        static = recover(
            tmp_path_factory.mktemp("static"),
            every=0,
            seed=1,
            cooldown_runs=1_000_000,  # scheduler never fires: frozen layout
            schedule=SCHEDULE,
        )
        guarded = recover(
            tmp_path_factory.mktemp("guarded"),
            every=0,
            seed=1,
            guardrail_enabled=True,
            learning_rate=1e6,  # worst case: the learner is broken
            schedule=SCHEDULE,
        )
        assert len(static.movements) == 0
        assert guarded.guardrail_trips
        assert guarded.mean_gbps >= 0.9 * static.mean_gbps

    def test_guardrail_state_survives_crash_and_resume(
        self, tmp_path_factory
    ):
        from repro.errors import SimulatedCrash

        kwargs = dict(guardrail_enabled=True, learning_rate=1e6)
        uninterrupted = recover(
            tmp_path_factory.mktemp("guard-base"), **kwargs
        )
        killed_dir = tmp_path_factory.mktemp("guard-killed")
        with pytest.raises(SimulatedCrash):
            recover(killed_dir, kill_point="pre-commit", **kwargs)
        resumed = resume_facade(killed_dir)
        # Trip history and fallback bookkeeping restore exactly.
        assert resumed.guardrail_trips == uninterrupted.guardrail_trips
        assert resumed.geo.fallback_runs == uninterrupted.geo.fallback_runs
        assert resumed.geo.guardrail.mode == uninterrupted.geo.guardrail.mode
        assert resumed.mean_gbps == uninterrupted.mean_gbps

    def test_a_diverged_online_learner_keeps_finite_weights_and_resumes(
        self, tmp_path, monkeypatch
    ):
        # The online learner at an absurd rate: every fit diverges, the
        # guardrail trips on nan-loss, and no cycle serves a NaN model.
        from repro.core.engine import DRLEngine
        from repro.errors import SimulatedCrash

        finite = []
        cycle = DRLEngine.train_incremental

        def checked(engine, db):
            report = cycle(engine, db)
            finite.append(bool(np.all(np.isfinite(engine.model._theta))))
            return report

        monkeypatch.setattr(DRLEngine, "train_incremental", checked)

        def online(directory, **kill):
            return run_facade(
                make_experiment_config(
                    TEST_SCALE, seed=0, online_learning=True,
                    guardrail_enabled=True, learning_rate=1e6,
                ),
                scale=TEST_SCALE,
                seed=0,
                checkpoints=Checkpoints(directory, every=CADENCE, **kill),
            )

        uninterrupted = online(tmp_path / "base")
        assert "nan-loss" in {t["reason"] for t in uninterrupted.guardrail_trips}
        with pytest.raises(SimulatedCrash):
            online(tmp_path / "killed", kill_at_run=7, kill_point="pre-commit")
        resumed = resume_facade(tmp_path / "killed")
        assert resumed.resumed_from_step == CADENCE
        assert finite and all(finite)
        assert resumed.guardrail_trips == uninterrupted.guardrail_trips
        assert resumed.final_layout == uninterrupted.final_layout
        assert resumed.mean_gbps == uninterrupted.mean_gbps


class TestStateIntrospection:
    def test_checkpoint_state_is_plain_json(self, tmp_path):
        recover(tmp_path)
        newest = sorted(tmp_path.glob("gen-*"))[-1]
        state = json.loads((newest / STATE_NAME).read_text())
        assert state["meta"]["seed"] == 0
        assert state["meta"]["scale"]["name"] == "test"
        assert "system" in state and "loop" in state
