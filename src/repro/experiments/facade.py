"""The one facade loop: the paper's Fig. 2 control loop, with stages.

:func:`run_facade` builds Geomancy over a fresh Bluesky testbed, warms it
up through the monitoring agents and runs :func:`run_measured_loop`.
Three optional stages plug into that one loop: :class:`Faults` (a fault
schedule, failing migrations, a lossy telemetry link), :class:`Checkpoints`
(write-ahead journal, atomic checkpoints that are also the guardrail's
known-good layouts, an injected kill for tests) and :class:`Exports`
(Prometheus, JSONL snapshots, a layer trace, the SLO burn table).  Every
run keeps the same books -- invariant violations, rescued and stranded
files, recovery times -- and returns one :class:`FacadeRun`.
:func:`resume_facade` finishes a killed run from its checkpoint directory
alone, bit for bit like the uninterrupted run; instrumentation never
touches an RNG or the simulated clock, so exports change no output either.
:func:`run_chaos` is two facade runs, fault-free and under a fault
stage, and its :class:`ChaosResult` reports them side by side.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from repro.agents.transport import Transport
from repro.core.config import GeomancyConfig
from repro.core.geomancy import Geomancy, StepOutcome
from repro.errors import ExperimentError, SimulatedCrash
from repro.experiments.harness import bluesky_runner, make_experiment_config
from repro.experiments.reporting import ascii_table
from repro.experiments.spec import ExperimentScale, TEST_SCALE
from repro.faults.chaos_transport import FaultStage
from repro.faults.injector import FaultInjector
from repro.faults.invariants import cluster_invariant_violations
from repro.faults.schedule import FaultSchedule
from repro.nn.serialization import load_weights
from repro.observability import metrics
from repro.observability.slo import (
    histogram_counts_above,
    slo_statuses,
    window_fires,
)
from repro.observability.tracing import Recorder, facade_layers
from repro.recovery.checkpoint import CheckpointManager
from repro.recovery.journal import LayoutJournal
from repro.recovery.snapshot import capture_system, restore_system
from repro.replaydb.db import ReplayDB
from repro.replaydb.records import MovementRecord
from repro.workloads.runner import WorkloadRunner

#: file name of the write-ahead layout journal inside the checkpoint dir
JOURNAL_NAME = "layout.journal"

KILL_POINTS = ("pre-commit", "mid-checkpoint", "post-commit")


@dataclass(frozen=True)
class Faults:
    """The fault stage; checkpoints carry it, so a resume rebuilds it."""

    #: fault specs, e.g. ``kill:file0@120`` (:mod:`repro.faults.schedule`)
    schedule: tuple[str, ...] = ()
    #: probability each file move aborts mid-transfer
    migration_failure_rate: float = 0.0
    #: :class:`FaultStage` rates of the telemetry link; None: lossless
    link: dict[str, float] | None = None
    #: simulated length of the measured phase that ``@N%`` times resolve
    #: against (a fault-free twin's); None admits absolute times only
    span_s: float | None = None

    def __post_init__(self) -> None:
        if FaultSchedule.from_specs(self.schedule).has_fractional_times and (
            self.span_s is None
        ):
            raise ExperimentError(
                "this harness needs absolute fault times "
                "(fractional '@N%' times depend on a baseline twin run)"
            )


@dataclass(frozen=True)
class Checkpoints:
    """The checkpoint stage: the whole system every ``every`` measured
    runs (0: journal only), ``keep`` generations on disk.  A test's kill
    (:class:`~repro.errors.SimulatedCrash`) fires at ``kill_at_run``
    before its checkpoint commits (``pre-commit``), between staging and
    publishing it (``mid-checkpoint``) or after it (``post-commit``)."""

    directory: str | os.PathLike
    every: int = 1
    keep: int = 3
    kill_at_run: int | None = None
    kill_point: str | None = None

    def __post_init__(self) -> None:
        if (self.kill_at_run is None) == (self.kill_point in KILL_POINTS):
            raise ExperimentError(
                f"kill_at_run and a kill_point of {KILL_POINTS} go together, "
                f"got {self.kill_at_run!r} and {self.kill_point!r}"
            )
        if self.every < 0:
            raise ExperimentError(
                f"checkpoint_every must be >= 0, got {self.every}"
            )


@dataclass(frozen=True)
class Exports:
    """The exports stage: Prometheus dump, JSONL snapshots and the stock
    SLOs' burn table (:mod:`repro.observability.slo`) under the two
    thresholds; a ``trace_path`` traces the measured phase's layers
    (:mod:`repro.observability.tracing`) and writes their spans as a
    Chrome trace."""

    metrics_path: str | os.PathLike | None = None
    snapshot_path: str | os.PathLike | None = None
    snapshot_every: int = 1
    trace_path: str | os.PathLike | None = None
    queue_delay_threshold_s: float = 0.05
    throughput_floor_gbps: float = 0.0

    def __post_init__(self) -> None:
        if self.snapshot_every < 1:
            raise ExperimentError(
                f"snapshot_every must be >= 1, got {self.snapshot_every}"
            )
        if not self.queue_delay_threshold_s > 0:
            raise ExperimentError(
                f"queue_delay_threshold_s must be positive, "
                f"got {self.queue_delay_threshold_s}"
            )
        if not self.throughput_floor_gbps >= 0:
            raise ExperimentError(
                f"throughput_floor_gbps must be >= 0, "
                f"got {self.throughput_floor_gbps}"
            )


@dataclass
class FacadeRun:
    """One facade run: the measured phase's books, the objects it left
    behind (:mod:`repro.observability.metrics` reads the metrics off
    ``geo``, ``runner`` and ``injector``) and what the other stages
    recorded.  ``events`` is the run's one event history, the
    ``geo.event_log`` a checkpoint carries."""

    seed: int
    scale_name: str
    runs_completed: int
    accesses: int
    mean_gbps: float
    #: simulated length and end of the measured phase
    duration_s: float
    end_time: float
    rescued_files: int
    #: per outage wave, seconds until no file was stranded any more
    recovery_times: list[float]
    stranded_at_end: int
    invariant_violations: list[str]
    #: the facade's recovery events (checkpoints, trips, resume ...)
    events: list[dict]
    geo: Geomancy = field(repr=False, compare=False)
    runner: WorkloadRunner = field(repr=False, compare=False)
    #: the fault stage's injector (None without one)
    injector: FaultInjector | None = field(repr=False, compare=False)
    checkpoints_written: int = 0
    #: step of the generation this process restored (None: not resumed)
    resumed_from_step: int | None = None
    rolled_back_txns: int = 0
    #: torn/corrupt-checkpoint fallbacks and other recovery notes
    warnings: list[str] = field(default_factory=list)
    #: files the exports landed in (absent keys were not requested)
    artifacts: dict[str, str] = field(default_factory=dict)
    #: the measured phase's layer recorder (None unless traced)
    trace: Recorder | None = field(default=None, repr=False, compare=False)
    #: final SLO burn-rate statuses (None without an exports stage)
    slo: list[dict] | None = None

    @property
    def final_layout(self) -> dict[int, str]:
        layout = self.geo.cluster.layout()
        return {spec.fid: layout[spec.fid] for spec in self.geo.files}

    @property
    def movements(self) -> list[MovementRecord]:
        return self.geo.db.movements()

    @property
    def guardrail_trips(self) -> list[dict]:
        rail = self.geo.guardrail
        return [trip.to_dict() for trip in rail.trips] if rail else []

    def movement_fingerprint(self) -> tuple:
        """Hashable movement history for bit-for-bit determinism comparisons."""
        return tuple(
            (m.timestamp, m.fid, m.src_device, m.dst_device, m.succeeded)
            for m in self.movements
        )

    def trace_text(self) -> str:
        """The traced measured phase as a layer table: self time per
        layer, and its cost per decision (a cycle the cooldown
        let through) and per access measured."""
        trace, decisions = self.trace, self.geo.decisions
        wall = trace.wall_s

        def per(seconds: float, count: int, scale: float) -> str:
            return f"{scale * seconds / count:.3f}" if count else "—"

        return ascii_table(
            ["layer", "calls", "self s", "share", "ms/decision", "µs/access"],
            [
                (layer, calls, f"{seconds:.4f}", f"{100 * seconds / wall:.1f}%",
                 per(seconds, decisions, 1e3), per(seconds, self.accesses, 1e6))
                for layer, calls, seconds in trace.layer_rows()
            ],
            title=(
                f"Per-layer self time (measured phase, {wall:.4f} s wall, "
                f"{decisions} decisions, {self.accesses} accesses)"
            ),
        )

    def _table(self, title: str, rows: list[tuple]) -> str:
        return ascii_table(
            ["metric", "value"],
            [
                ("runs completed", self.runs_completed),
                ("accesses measured", self.accesses),
                ("mean GB/s", f"{self.mean_gbps:.3f}"),
                *rows,
            ],
            title=f"{title} (seed {self.seed}, {self.scale_name} scale)",
        )

    def recovery_text(self) -> str:
        """The ``recover`` / ``resume`` report."""
        table = self._table("Recoverable run", [
            ("checkpoints written", self.checkpoints_written),
            ("resumed from step",
             self.resumed_from_step
             if self.resumed_from_step is not None else "(not resumed)"),
            ("journal txns rolled back", self.rolled_back_txns),
            ("files rescued", self.rescued_files),
            ("guardrail trips", len(self.guardrail_trips)),
            ("runs under fallback policy", self.geo.fallback_runs),
            ("recovery events", len(self.events)),
            ("invariant violations", len(self.invariant_violations)),
        ])
        if self.warnings:
            table += "\nWARNINGS:\n" + "\n".join(self.warnings)
        if self.invariant_violations:
            table += "\nVIOLATIONS:\n" + "\n".join(self.invariant_violations)
        return table

    def observed_text(self) -> str:
        """The ``run`` report: counts, artifacts, layers, SLOs."""
        table = self._table("Instrumented run", [
            ("files moved", sum(1 for m in self.movements if m.succeeded)),
            *([("spans recorded", len(self.trace.spans))] if self.trace else []),
            ("metrics registered", len(metrics.run_metrics(self.injector))),
        ])
        for kind, path in sorted(self.artifacts.items()):
            table += f"\n{kind}: {path}"
        if self.trace is not None:
            table += "\n\n" + self.trace_text()
        if self.slo is not None:
            table += "\n\n" + _slo_text(self.slo)
        return table


def _slo_text(statuses: list[dict]) -> str:
    """The final SLO statuses as the ``run`` report's burn table."""
    lines = ["SLO burn status (final evaluation)"]
    for status in statuses:
        flag = "ALERT" if status["alerting"] else "ok"
        lines.append(
            f"  {status['name']:<28} target {status['target']:.3%}  "
            f"compliance {status['compliance']:.3%}  [{flag}]"
        )
        ceiling = 1.0 / (1.0 - status["target"])
        for window_s, threshold, burn in status["burns"]:
            fires = window_fires(burn, threshold, status["target"])
            marker = "!" if fires else " "
            limit = (
                f"alert above {threshold:.1f}x" if threshold <= ceiling
                else f"alert at {ceiling:.1f}x, the most it can burn"
            )
            lines.append(
                f"    {marker} window {window_s:>7.0f}s  "
                f"burn {burn:6.2f}x  ({limit})"
            )
    if not statuses:
        lines.append("  (no objectives evaluated)")
    return "\n".join(lines)


# -- the loop -------------------------------------------------------------


def warm_up_through_agents(
    geo: Geomancy, runner: WorkloadRunner, accesses: int
) -> None:
    """Run the workload until ``accesses`` rows landed in ``geo.db``,
    each run's telemetry through the agents and flushed at its last
    close time.  Every run serves an access, so a link that delivers
    lands them within ``accesses`` runs; one that does not raises."""
    runs = 0
    while geo.db.access_count() < accesses:
        if runs == accesses:
            raise ExperimentError(
                f"warm-up landed {geo.db.access_count()} of {accesses} "
                f"accesses in {runs} runs: the telemetry link delivers "
                f"too little"
            )
        runs += 1
        records = runner.run_many(1)[0].records
        geo.observe_records(records)
        geo.flush_telemetry(at=records[-1].close_time if records else 0.0)


def run_measured_loop(
    geo: Geomancy,
    runner: WorkloadRunner,
    runs: Iterable[int],
    injector: FaultInjector | None,
    each_run: Callable[[int, list[float], StepOutcome], None],
) -> None:
    """The measured phase: run, consult, book-keep -- once per run number.

    Every run: the injector's faults fire after each access and at the
    run's end, the records go through the agents and are flushed, then
    ``geo.after_run`` hears the run's mean GB/s (an enabled guardrail
    holds it against the prediction).  ``each_run(run, per-access GB/s,
    outcome)`` keeps the run's books and may raise to abandon the loop.
    The injector is uninstalled after the last run.
    """
    for run_number in runs:
        records = runner.run_many(
            1, advance_hook=injector.advance if injector else None
        )[0].records
        if injector is not None:
            injector.advance(runner.clock.now)
        geo.observe_records(records)
        geo.flush_telemetry(at=runner.clock.now)
        run_gbps = [float(record.throughput_gbps) for record in records]
        outcome = geo.after_run(
            run_number,
            runner.clock.now,
            realized_gbps=float(np.mean(run_gbps)) if run_gbps else None,
        )
        each_run(run_number, run_gbps, outcome)
    if injector is not None:
        injector.uninstall()


# -- running and resuming -------------------------------------------------


def run_facade(
    config: GeomancyConfig,
    *,
    scale: ExperimentScale,
    seed: int,
    faults: Faults | None = None,
    checkpoints: Checkpoints | None = None,
    exports: Exports | None = None,
) -> FacadeRun:
    """One warm-up + measured facade loop with the given stages.

    No stage changes a decision: a run with ``exports=None`` is the
    uninstrumented twin of one with an exports stage.
    """
    mgr = journal = None
    if checkpoints is not None:
        mgr = CheckpointManager(checkpoints.directory, keep=checkpoints.keep)
        journal = LayoutJournal(Path(checkpoints.directory) / JOURNAL_NAME)
    # Checkpoints cover the measured phase only: a killed warm-up
    # starts over.
    geo, runner = _build(config, seed, faults, journal=journal)
    geo.place_initial()
    warm_up_through_agents(geo, runner, scale.warmup_accesses)
    meta = dict(
        seed=seed, scale=asdict(scale), config=asdict(config),
        faults=asdict(faults) if faults is not None else None,
        phase_start=runner.clock.now,
    )
    books = dict(
        next_run=1, throughput=[], rescued=0, violations=[],
        recovery_times=[], stranded_since=None, checkpoints_written=0,
        rolled_back=0,
    )
    injector = _injector(faults, geo, meta)
    if checkpoints is not None:
        meta.update(every=checkpoints.every, keep=checkpoints.keep)
        geo.mark_known_good(0)
        if checkpoints.every > 0:
            # Generation 0: the post-warm-up baseline every resume can
            # fall back to even if every later generation is torn.
            _checkpoint(mgr, 0, geo, runner, meta, books, injector)
    return _drive(
        geo, runner, meta, books, injector, mgr,
        checkpoints=checkpoints, exports=exports,
    )


def resume_facade(directory: str | os.PathLike) -> FacadeRun:
    """Restore the newest valid checkpoint in ``directory``, finish the run.

    Corrupt or torn generations are skipped with a recorded warning;
    in-flight journal transactions are rolled back first.
    """
    directory = Path(directory)
    mgr = CheckpointManager(directory)
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
    config = {**meta["config"], "features": tuple(meta["config"]["features"])}
    faults = Faults(**meta["faults"]) if meta["faults"] is not None else None
    seed = int(meta["seed"])
    journal = LayoutJournal(directory / JOURNAL_NAME)
    geo, runner = _build(
        GeomancyConfig(**config), seed, faults,
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
        "resume", t=runner.clock.now, step=loaded.step,
        generation=loaded.path.name, rolled_back_txns=rolled,
    )
    injector = _injector(faults, geo, meta)
    if injector is not None:
        injector.load_state_dict(state["injector"])
    books = dict(state["loop"])
    books["rolled_back"] += rolled
    return _drive(geo, runner, meta, books, injector, mgr, loaded=loaded)


# -- chaos ----------------------------------------------------------------

#: kill 2 of the 6 Bluesky mounts partway through the measured phase
DEFAULT_CHAOS_SCHEDULE: tuple[str, ...] = ("kill:file0@40%", "kill:pic@55%")


@dataclass
class ChaosResult:
    """A chaos run beside its fault-free twin.  The report reads every
    count off the run, injector, control agent, daemon, link or health
    tracker that kept it."""

    baseline: FacadeRun
    chaos: FacadeRun
    schedule_specs: tuple[str, ...]
    migration_failure_rate: float

    @property
    def throughput_retention_percent(self) -> float:
        """Chaos-run throughput as a share of the fault-free baseline."""
        if self.baseline.mean_gbps <= 0:
            raise ExperimentError("baseline measured non-positive throughput")
        return self.chaos.mean_gbps / self.baseline.mean_gbps * 100.0

    @property
    def recovery_time_s(self) -> float | None:
        """Time from the last outage wave until no file was stranded."""
        times = self.chaos.recovery_times
        return times[-1] if times else None

    def movement_fingerprint(self) -> tuple:
        """The chaos twin's movement history, compared like any loop's."""
        return self.chaos.movement_fingerprint()

    def to_text(self) -> str:
        chaos = self.chaos
        geo, outages = chaos.geo, chaos.injector.outage_log
        link = geo.telemetry.faults
        recovery = self.recovery_time_s
        rows = [
            ("baseline GB/s", f"{self.baseline.mean_gbps:.2f}"),
            ("chaos GB/s", f"{chaos.mean_gbps:.2f}"),
            ("throughput retention",
             f"{self.throughput_retention_percent:.1f}%"),
            ("outages injected",
             ", ".join(f"{d}@{t:.0f}s" for t, d in outages) or "none"),
            ("recovery time",
             f"{recovery:.1f}s" if recovery is not None
             else ("n/a" if not outages else "not recovered")),
            ("files still stranded", chaos.stranded_at_end),
            ("accesses failed (offline)", chaos.runner.failed_accesses),
            ("moves failed mid-transfer", geo.control.moves_failed),
            ("moves retried", geo.control.moves_retried),
            ("retries exhausted", len(geo.control.exhausted)),
            ("files rescued", chaos.rescued_files),
            ("telemetry dead-letters", geo.daemon.dead_letters),
            ("batches dropped/delayed/corrupted",
             f"{link.dropped}/{link.delayed}/{link.corrupted}"),
            ("quarantined devices",
             ", ".join(geo.health.quarantined_devices(chaos.end_time))
             or "none"),
            ("invariant violations", len(chaos.invariant_violations)),
        ]
        table = ascii_table(
            ["metric", "value"], rows,
            title=f"Chaos run (seed {chaos.seed}, "
                  f"{self.migration_failure_rate:.0%} migration failures)",
        )
        if chaos.invariant_violations:
            table += "\nVIOLATIONS:\n" + "\n".join(chaos.invariant_violations)
        return table


def run_chaos(
    *,
    scale: ExperimentScale = TEST_SCALE,
    seed: int = 7,
    schedule_specs: tuple[str, ...] | None = None,
    migration_failure_rate: float = 0.05,
    drop_rate: float = 0.02,
    delay_rate: float = 0.02,
    reorder_rate: float = 0.05,
    corrupt_rate: float = 0.01,
) -> ChaosResult:
    """Run the Belle II workload fault-free, then under the chaos schedule
    (device kills and degradations, mid-transfer migration aborts, a lossy
    telemetry link).

    Both runs share every seed, so the throughput delta is attributable to
    the injected faults (plus the control plane's recovery work), and a
    fixed seed reproduces the byte-identical movement history.
    """
    specs = (
        tuple(schedule_specs) if schedule_specs is not None
        else DEFAULT_CHAOS_SCHEDULE
    )
    FaultSchedule.from_specs(specs)  # a malformed spec fails before either run
    config = make_experiment_config(scale, seed=seed)
    baseline = run_facade(config, scale=scale, seed=seed)
    # Fractional times ("@40%") refer to the measured phase; the
    # fault-free twin measured how long that phase lasts.
    chaos = run_facade(config, scale=scale, seed=seed, faults=Faults(
        schedule=specs,
        migration_failure_rate=migration_failure_rate,
        link=dict(
            drop_rate=drop_rate, delay_rate=delay_rate,
            reorder_rate=reorder_rate, corrupt_rate=corrupt_rate,
        ),
        span_s=baseline.duration_s,
    ))
    return ChaosResult(baseline, chaos, specs, migration_failure_rate)


def _build(
    config: GeomancyConfig,
    seed: int,
    faults: Faults | None,
    *,
    db: ReplayDB | None = None,
    journal: LayoutJournal | None = None,
) -> tuple[Geomancy, WorkloadRunner]:
    """Unplaced Geomancy (over the stage's link) on a fresh testbed, and
    its runner."""
    runner = bluesky_runner(seed)
    geo = Geomancy(
        runner.cluster, runner.workload.files, config,
        telemetry=(
            Transport(faults=FaultStage(seed=seed, **faults.link))
            if faults is not None and faults.link is not None
            else None
        ),
        db=db,
        journal=journal,
    )
    return geo, runner


def _injector(faults: Faults | None, geo: Geomancy, meta: dict):
    """The stage's installed injector; its times count from the phase start."""
    if faults is None:
        return None
    schedule = FaultSchedule.from_specs(faults.schedule)
    if schedule.has_fractional_times:
        schedule = schedule.resolved(faults.span_s)
    return FaultInjector(
        geo.cluster,
        FaultSchedule(
            replace(event, at=event.at + meta["phase_start"])
            for event in schedule
        ),
        migration_failure_rate=faults.migration_failure_rate,
        seed=meta["seed"],
    ).install()


def _checkpoint(mgr, step, geo, runner, meta, books, injector) -> None:
    """Commit generation ``step`` (``mgr.fault_hook`` may kill it midway)."""
    geo.event_log.emit(
        "checkpoint-saved", t=runner.clock.now, step=step,
        generation=f"gen-{step:08d}",
    )
    books["checkpoints_written"] += 1
    state = dict(
        meta=meta, system=capture_system(geo, runner), loop=books,
        injector=injector.state_dict() if injector is not None else None,
        events=geo.event_log.state_dict(),
    )
    model = geo.engine.model
    mgr.save(step, state, db=geo.db, model=model if model.built else None)


def _drive(
    geo: Geomancy,
    runner: WorkloadRunner,
    meta: dict,
    books: dict,
    injector: FaultInjector | None,
    mgr: CheckpointManager | None,
    *,
    checkpoints: Checkpoints | None = None,
    exports: Exports | None = None,
    loaded=None,
) -> FacadeRun:
    """The measured phase from ``books["next_run"]`` on, and its report."""
    cluster = geo.cluster
    every = meta["every"] if mgr is not None else 0
    # one SLO row per run: t, the queue-delay counts around the threshold
    # since this phase began, the run's mean GB/s
    slo_rows: list[tuple[float, int, int, float]] = []
    if exports is not None:
        # The daemon's histogram also holds the warm-up's batches.
        before = histogram_counts_above(
            geo.daemon.queue_delay_histogram, exports.queue_delay_threshold_s
        )

    def each_run(
        run_number: int, run_gbps: list[float], outcome: StepOutcome
    ) -> None:
        now = runner.clock.now
        books["throughput"].extend(run_gbps)
        books["rescued"] += outcome.rescued_files
        books["violations"].extend(
            cluster_invariant_violations(cluster, geo.files)
        )
        stranded = bool(cluster.files_stranded())
        if stranded and books["stranded_since"] is None:
            books["stranded_since"] = now
        elif not stranded and books["stranded_since"] is not None:
            books["recovery_times"].append(now - books["stranded_since"])
            books["stranded_since"] = None
        books["next_run"] = run_number + 1
        if exports is not None:
            below, above = histogram_counts_above(
                geo.daemon.queue_delay_histogram,
                exports.queue_delay_threshold_s,
            )
            slo_rows.append((
                now, below - before[0], above - before[1],
                float(np.mean(run_gbps)) if run_gbps else 0.0,
            ))
        if exports is not None and exports.snapshot_path is not None and (
            run_number % exports.snapshot_every == 0
        ):
            metrics.write_snapshot(
                exports.snapshot_path, geo, runner, injector,
                run=run_number, seed=meta["seed"],
            )
        if mgr is None:
            return
        due = every > 0 and run_number % every == 0
        point = None
        if checkpoints is not None and checkpoints.kill_at_run == run_number:
            point = checkpoints.kill_point
        if point == "pre-commit" or (point == "mid-checkpoint" and not due):
            raise SimulatedCrash(
                f"injected kill before checkpoint at run {run_number}"
            )
        if due:
            geo.mark_known_good(run_number)
            if point == "mid-checkpoint":

                def _die(barrier: str) -> None:
                    if barrier == "staged":
                        raise SimulatedCrash(
                            f"injected kill mid-checkpoint at run {run_number}"
                        )

                mgr.fault_hook = _die
            try:
                _checkpoint(mgr, run_number, geo, runner, meta, books, injector)
            finally:
                mgr.fault_hook = None
        if point == "post-commit":
            raise SimulatedCrash(
                f"injected kill after checkpoint at run {run_number}"
            )

    measured_phase = partial(
        run_measured_loop, geo, runner,
        range(books["next_run"], meta["scale"]["runs"] + 1), injector, each_run,
    )
    trace = None
    if exports is not None and exports.trace_path is not None:
        trace = Recorder()
        for part, layer in facade_layers(geo, runner):
            trace.wrap(part, layer)
        measured_phase = partial(trace.measure, measured_phase)
    measured_phase()

    artifacts: dict[str, str] = {}
    if exports is not None and exports.metrics_path is not None:
        path = Path(exports.metrics_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(metrics.render_prometheus(geo, runner, injector))
        artifacts["metrics"] = str(path)
    if exports is not None and exports.snapshot_path is not None:
        artifacts["metrics_snapshots"] = str(Path(exports.snapshot_path))
    if trace is not None:
        path = Path(exports.trace_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        # The provenance ledger contributes a causal track (batches and
        # decisions as linked spans) alongside the layers' spans.
        extra = geo.ledger.chrome_events() if geo.ledger is not None else None
        trace.export_chrome(path, extra_events=extra)
        artifacts["trace"] = str(path)
    if exports is not None and geo.ledger is not None and geo.ledger.path:
        artifacts["provenance"] = str(geo.ledger.path)
    throughput = books["throughput"]
    return FacadeRun(
        seed=meta["seed"],
        scale_name=meta["scale"]["name"],
        runs_completed=books["next_run"] - 1,
        accesses=len(throughput),
        mean_gbps=float(np.mean(throughput)) if throughput else 0.0,
        duration_s=runner.clock.now - meta["phase_start"],
        end_time=runner.clock.now,
        rescued_files=books["rescued"],
        recovery_times=list(books["recovery_times"]),
        stranded_at_end=len(cluster.files_stranded()),
        invariant_violations=list(books["violations"]),
        events=[event.to_dict() for event in geo.event_log],
        geo=geo,
        runner=runner,
        injector=injector,
        checkpoints_written=books["checkpoints_written"],
        resumed_from_step=loaded.step if loaded is not None else None,
        rolled_back_txns=books["rolled_back"],
        warnings=list(loaded.warnings) if loaded is not None else [],
        artifacts=artifacts,
        trace=trace,
        slo=None if exports is None else slo_statuses(
            slo_rows, runner.clock.now, exports.throughput_floor_gbps
        ),
    )

