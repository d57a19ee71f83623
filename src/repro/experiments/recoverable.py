"""The crash-recoverable Geomancy control loop.

``run_recoverable`` drives the same warm-up + measured Belle II loop as
the chaos harness, but wired through the :mod:`repro.recovery` stack:

* every layout dispatch is bracketed by write-ahead journal records;
* every ``checkpoint_every`` measured runs the full system state --
  ReplayDB snapshot, model weights, layout, scheduler position, every
  RNG stream -- is committed as an atomic checkpoint generation;
* the facade's safe-mode guardrail (optional) is told which layouts are
  known good -- the post-warm-up one, then every checkpoint taken while
  the learner holds authority -- so a trip rolls back to the last of
  them before the learner is demoted to the fallback policy.

``resume_recoverable`` restarts a killed run from its checkpoint
directory alone (all parameters travel inside the checkpoint) and
continues deterministically: a run killed at any supported point and
resumed produces the *bit-for-bit identical* final layout, movement
history and throughput metrics as the same run left uninterrupted.

Crash injection for tests rides on ``kill_at_run``/``kill_point``:
``pre-commit`` dies before that run's checkpoint commits, ``mid-
checkpoint`` dies between staging the files and publishing the
manifest (exercising torn-checkpoint fallback), ``post-commit`` dies
just after the commit.  All raise :class:`~repro.errors.SimulatedCrash`.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.core.config import GeomancyConfig
from repro.core.geomancy import Geomancy, StepOutcome
from repro.errors import ExperimentError, SimulatedCrash
from repro.experiments.harness import (
    FacadeLoopResult,
    absolute_fault_schedule,
    build_facade_loop,
    install_faults,
    make_experiment_config,
    run_measured_loop,
    start_facade_loop,
)
from repro.experiments.reporting import ascii_table
from repro.experiments.spec import ExperimentScale, TEST_SCALE
from repro.faults.injector import FaultInjector
from repro.faults.invariants import cluster_invariant_violations
from repro.faults.schedule import FaultSchedule
from repro.nn.serialization import load_weights
from repro.recovery.checkpoint import CheckpointManager
from repro.recovery.journal import LayoutJournal
from repro.recovery.snapshot import capture_system, restore_system
from repro.replaydb.db import ReplayDB
from repro.workloads.runner import WorkloadRunner

#: file name of the write-ahead layout journal inside the checkpoint dir
JOURNAL_NAME = "layout.journal"

KILL_POINTS = ("pre-commit", "mid-checkpoint", "post-commit")


@dataclass
class RecoverableRunResult(FacadeLoopResult):
    """Outcome of one (possibly resumed) recoverable control loop."""

    checkpoints_written: int
    #: step of the checkpoint generation this process restored from
    #: (None for an uninterrupted run)
    resumed_from_step: int | None
    rolled_back_txns: int
    rescued_files: int
    fallback_runs: int
    guardrail_trips: list[dict] = field(default_factory=list)
    guardrail_mode: str | None = None
    events: list[dict] = field(default_factory=list)
    invariant_violations: list[str] = field(default_factory=list)
    #: torn/corrupt-checkpoint fallbacks and other recovery notes
    warnings: list[str] = field(default_factory=list)

    def to_text(self) -> str:
        rows = [
            ("runs completed", self.runs_completed),
            ("accesses measured", self.accesses),
            ("mean GB/s", f"{self.mean_gbps:.3f}"),
            ("checkpoints written", self.checkpoints_written),
            ("resumed from step",
             self.resumed_from_step
             if self.resumed_from_step is not None else "(not resumed)"),
            ("journal txns rolled back", self.rolled_back_txns),
            ("files rescued", self.rescued_files),
            ("guardrail trips", len(self.guardrail_trips)),
            ("runs under fallback policy", self.fallback_runs),
            ("recovery events", len(self.events)),
            ("invariant violations", len(self.invariant_violations)),
        ]
        table = ascii_table(
            ["metric", "value"], rows,
            title=f"Recoverable run (seed {self.seed}, "
                  f"{self.scale_name} scale)",
        )
        if self.warnings:
            table += "\nWARNINGS:\n" + "\n".join(self.warnings)
        if self.invariant_violations:
            table += "\nVIOLATIONS:\n" + "\n".join(self.invariant_violations)
        return table


@dataclass
class _Session:
    """Everything the measured loop needs, fresh-built or restored."""

    scale: ExperimentScale
    seed: int
    geo: Geomancy
    runner: WorkloadRunner
    mgr: CheckpointManager
    injector: FaultInjector | None
    meta: dict
    loop: dict
    resumed_from: int | None = None
    warnings: list[str] = field(default_factory=list)


def _compose_state(s: _Session) -> dict:
    return {
        "meta": s.meta,
        "system": capture_system(s.geo, s.runner),
        "loop": s.loop,
        "injector": (
            s.injector.state_dict() if s.injector is not None else None
        ),
        "events": s.geo.event_log.state_dict(),
    }


def _build_injector(
    cluster,
    meta: dict,
    seed: int,
) -> FaultInjector | None:
    specs = tuple(meta["schedule_specs"])
    if not specs:
        return None
    return install_faults(
        cluster,
        FaultSchedule.from_specs(specs),
        phase_start=meta["phase_start"],
        migration_failure_rate=meta["migration_failure_rate"],
        seed=seed,
    )


def run_recoverable(
    *,
    checkpoint_dir: str | os.PathLike,
    scale: ExperimentScale = TEST_SCALE,
    seed: int = 0,
    checkpoint_every: int = 1,
    keep: int = 3,
    guardrail: bool = False,
    fallback_policy: str = "static",
    schedule_specs: tuple[str, ...] = (),
    migration_failure_rate: float = 0.0,
    kill_at_run: int | None = None,
    kill_point: str | None = None,
    **config_overrides,
) -> RecoverableRunResult:
    """One warm-up + measured loop under the durability stack.

    The full system state is checkpointed every ``checkpoint_every``
    measured runs (0 disables), ``keep`` rotated generations stay on
    disk.  Every parameter is persisted inside each checkpoint, so
    :func:`resume_recoverable` needs only the directory.
    """
    if kill_point is not None and kill_point not in KILL_POINTS:
        raise ExperimentError(
            f"kill_point must be one of {KILL_POINTS}, got {kill_point!r}"
        )
    if (kill_at_run is None) != (kill_point is None):
        raise ExperimentError(
            "kill_at_run and kill_point must be given together"
        )
    if checkpoint_every < 0:
        raise ExperimentError(
            f"checkpoint_every must be >= 0, got {checkpoint_every}"
        )
    specs = tuple(schedule_specs)
    absolute_fault_schedule(specs)
    config = make_experiment_config(
        scale,
        seed=seed,
        guardrail_enabled=guardrail,
        fallback_policy=fallback_policy,
        **config_overrides,
    )
    checkpoint_dir = Path(checkpoint_dir)
    mgr = CheckpointManager(checkpoint_dir, keep=keep)
    # Warm-up: telemetry lands through the agents but is not measured.
    # Checkpoints only cover the measured phase; a kill during warm-up
    # means starting over (warm-up is cheap and fully deterministic).
    geo, runner = start_facade_loop(
        config,
        seed=seed,
        warmup_accesses=scale.warmup_accesses,
        journal=LayoutJournal(checkpoint_dir / JOURNAL_NAME),
    )
    geo.mark_known_good(0)

    meta = {
        "seed": seed,
        "scale": asdict(scale),
        "config": asdict(config),
        "checkpoint_every": checkpoint_every,
        "keep": keep,
        "schedule_specs": list(specs),
        "migration_failure_rate": float(migration_failure_rate),
        "phase_start": runner.clock.now,
    }
    session = _Session(
        scale=scale,
        seed=seed,
        geo=geo,
        runner=runner,
        mgr=mgr,
        injector=_build_injector(geo.cluster, meta, seed),
        meta=meta,
        loop={
            "next_run": 1,
            "throughput": [],
            "rescued": 0,
            "violations": [],
            "checkpoints_written": 0,
        },
    )
    if checkpoint_every > 0:
        # Generation 0: the post-warm-up baseline every resume can fall
        # back to even if every later generation is torn.
        geo.event_log.emit(
            "checkpoint-saved", t=runner.clock.now, step=0, generation="gen-0"
        )
        session.loop["checkpoints_written"] += 1
        mgr.save(0, _compose_state(session), db=geo.db)
    return _measured_loop(
        session, kill_at_run=kill_at_run, kill_point=kill_point
    )


def resume_recoverable(
    checkpoint_dir: str | os.PathLike,
) -> RecoverableRunResult:
    """Restore the newest valid checkpoint and finish the run.

    Needs no parameters beyond the directory: seed, scale, config and
    fault schedule all travel inside the checkpoint.  Corrupt or torn
    generations are skipped (newest first) with a recorded warning;
    in-flight journal transactions are rolled back before the loop
    continues.
    """
    checkpoint_dir = Path(checkpoint_dir)
    mgr = CheckpointManager(checkpoint_dir)
    loaded = mgr.latest_valid()
    # Anything newer than the restored generation failed verification;
    # drop it so the deterministic replay can re-publish those steps.
    for name in mgr.discard_newer(loaded.step):
        loaded.warnings.append(
            f"discarded unverifiable checkpoint {name} newer than "
            f"restored generation"
        )
    state = loaded.state
    meta = state["meta"]
    mgr.keep = int(meta["keep"])
    config_raw = dict(meta["config"])
    config_raw["features"] = tuple(config_raw["features"])
    seed = int(meta["seed"])

    journal = LayoutJournal(checkpoint_dir / JOURNAL_NAME)
    geo, runner = build_facade_loop(
        GeomancyConfig(**config_raw),
        seed=seed,
        db=(
            ReplayDB.from_snapshot(loaded.replay_path)
            if loaded.replay_path is not None
            else ReplayDB()
        ),
        journal=journal,
    )
    event_log = geo.event_log
    event_log.load_state_dict(state["events"])
    restore_system(geo, runner, state["system"])
    if loaded.model_path is not None and geo.engine.model.built:
        load_weights(geo.engine.model, loaded.model_path)
    rolled = journal.resolve_pending(
        geo.cluster, geo.files, event_log, t=runner.clock.now, step=loaded.step
    )
    for warning in loaded.warnings:
        event_log.emit(
            "checkpoint-corrupt", t=runner.clock.now, step=loaded.step,
            warning=warning,
        )
    event_log.emit(
        "resume",
        t=runner.clock.now,
        step=loaded.step,
        generation=loaded.path.name,
        rolled_back_txns=rolled,
    )
    injector = _build_injector(geo.cluster, meta, seed)
    if injector is not None:
        injector.load_state_dict(state["injector"])
    session = _Session(
        scale=ExperimentScale(**meta["scale"]),
        seed=seed,
        geo=geo,
        runner=runner,
        mgr=mgr,
        injector=injector,
        meta=meta,
        loop=dict(state["loop"]),
        resumed_from=loaded.step,
        warnings=list(loaded.warnings),
    )
    session.loop["rolled_back"] = (
        session.loop.get("rolled_back", 0) + rolled
    )
    return _measured_loop(session, kill_at_run=None, kill_point=None)


# -- the measured loop ----------------------------------------------------


def _measured_loop(
    s: _Session,
    *,
    kill_at_run: int | None,
    kill_point: str | None,
) -> RecoverableRunResult:
    geo, loop = s.geo, s.loop
    checkpoint_every = s.meta["checkpoint_every"]

    def check_and_checkpoint(
        run_number: int, run_gbps: list[float], outcome: StepOutcome
    ) -> None:
        loop["throughput"].extend(run_gbps)
        loop["rescued"] += outcome.rescued_files
        loop["violations"].extend(
            cluster_invariant_violations(geo.cluster, geo.files)
        )
        loop["next_run"] = run_number + 1

        due = checkpoint_every > 0 and run_number % checkpoint_every == 0
        killing = kill_at_run == run_number
        if killing and (
            kill_point == "pre-commit"
            or (kill_point == "mid-checkpoint" and not due)
        ):
            raise SimulatedCrash(
                f"injected kill before checkpoint at run {run_number}"
            )
        if due:
            geo.mark_known_good(run_number)
            geo.event_log.emit(
                "checkpoint-saved",
                t=s.runner.clock.now,
                step=run_number,
                generation=f"gen-{run_number:08d}",
            )
            loop["checkpoints_written"] += 1
            if killing and kill_point == "mid-checkpoint":

                def _die(barrier: str) -> None:
                    if barrier == "staged":
                        raise SimulatedCrash(
                            f"injected kill mid-checkpoint at run {run_number}"
                        )

                s.mgr.fault_hook = _die
            try:
                s.mgr.save(
                    run_number,
                    _compose_state(s),
                    db=geo.db,
                    model=geo.engine.model if geo.engine.model.built else None,
                )
            finally:
                s.mgr.fault_hook = None
        if killing and kill_point == "post-commit":
            raise SimulatedCrash(
                f"injected kill after checkpoint at run {run_number}"
            )

    run_measured_loop(
        geo, s.runner, range(loop["next_run"], s.scale.runs + 1),
        injector=s.injector, each_run=check_and_checkpoint,
    )
    rail = geo.guardrail
    return RecoverableRunResult.measured(
        geo, loop["throughput"],
        seed=s.seed, scale=s.scale, runs_completed=loop["next_run"] - 1,
        checkpoints_written=loop["checkpoints_written"],
        resumed_from_step=s.resumed_from,
        rolled_back_txns=loop.get("rolled_back", 0),
        rescued_files=loop["rescued"],
        fallback_runs=geo.fallback_runs,
        guardrail_trips=(
            [trip.to_dict() for trip in rail.trips] if rail is not None else []
        ),
        guardrail_mode=rail.mode if rail is not None else None,
        events=[event.to_dict() for event in geo.event_log],
        invariant_violations=list(loop["violations"]),
        warnings=list(s.warnings),
    )
