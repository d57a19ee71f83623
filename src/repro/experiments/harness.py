"""The shared experiment loops: one driver per loop shape.

**Policy loop** (Experiment 1 and 2 machinery).  A ``PlacementPolicy``
reads the ReplayDB the runner writes.  :func:`consult_policy` is one
consultation -- current layout of the tuned files, ``update_layout``,
``apply_layout``, movements recorded.  :func:`run_policy_experiment` runs
one policy on a fresh Bluesky cluster with the same seeded workload and
interference as every other policy in the comparison:

1. place files per the policy's initial layout;
2. warm up until the ReplayDB holds the configured access count ("BELLE 2
   is run until Geomancy's monitoring agents can capture 10000 accesses");
3. run the measured phase, consulting dynamic policies every
   ``update_every`` runs and applying their relayouts (movement overhead
   lands on the shared devices and is therefore part of every measurement).

**Facade loop.**  The :class:`~repro.core.geomancy.Geomancy` facade gets
its telemetry through the monitoring agents: :func:`start_facade_loop`
builds it warmed up that way (:func:`warm_up_through_agents`), and
:func:`run_measured_loop` is the measured phase -- per run one
:func:`run_through_agents` (optionally under a fault injector), one
``geo.after_run``, then the harness's own bookkeeping -- reported as a
:class:`FacadeLoopResult`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.config import GeomancyConfig
from repro.core.geomancy import Geomancy, StepOutcome
from repro.errors import ExperimentError
from repro.experiments.spec import ExperimentScale, TEST_SCALE
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.policies.base import PlacementPolicy
from repro.policies.random_policy import RandomDynamicPolicy
from repro.replaydb.db import ReplayDB
from repro.replaydb.records import AccessRecord, MovementRecord
from repro.simulation.bluesky import make_bluesky_cluster
from repro.simulation.cluster import StorageCluster
from repro.workloads.belle2 import Belle2Workload
from repro.workloads.files import FileSpec, belle2_file_population
from repro.workloads.runner import WorkloadRunner


@dataclass
class PolicyRunResult:
    """Everything measured while one policy steered the workload."""

    policy_name: str
    #: per-access throughput (GB/s), measured phase only
    throughput_gbps: list[float] = field(default_factory=list)
    #: (access_number, files_moved) for each applied relayout
    movements: list[tuple[int, int]] = field(default_factory=list)
    #: per-device usage share (% of accesses), measured phase
    usage_percent: dict[str, float] = field(default_factory=dict)
    #: per-device observed mean/std throughput (GB/s), measured phase
    device_throughput: dict[str, tuple[float, float]] = field(
        default_factory=dict
    )

    @property
    def mean_throughput(self) -> float:
        if not self.throughput_gbps:
            raise ExperimentError("no accesses were measured")
        return float(np.mean(self.throughput_gbps))

    @property
    def std_throughput(self) -> float:
        if not self.throughput_gbps:
            raise ExperimentError("no accesses were measured")
        return float(np.std(self.throughput_gbps))

    @property
    def total_files_moved(self) -> int:
        return sum(count for _, count in self.movements)

    @property
    def access_count(self) -> int:
        return len(self.throughput_gbps)


def make_experiment_config(
    scale: ExperimentScale, *, seed: int = 0, **overrides
) -> GeomancyConfig:
    """A GeomancyConfig sized for an experiment scale."""
    params = dict(
        training_rows=scale.training_rows,
        epochs=scale.epochs,
        cooldown_runs=scale.update_every,
        seed=seed,
    )
    params.update(overrides)
    return GeomancyConfig(**params)


def consult_policy(
    policy: PlacementPolicy,
    db: ReplayDB,
    cluster: StorageCluster,
    files: list[FileSpec],
    devices: list[str],
    t: float,
) -> list[MovementRecord]:
    """One consultation of a dynamic policy; returns the moves it caused.

    The policy sees the present placement of ``files`` (the cluster may
    hold other workloads' files too) and may target ``devices``; its
    relayout is applied at ``t`` and the movements land in ``db``.
    """
    current = cluster.layout({f.fid for f in files})
    layout = policy.update_layout(db, files, devices, current)
    if not layout:
        return []
    moves = cluster.apply_layout(layout, t)
    if moves:
        db.insert_movements(moves)
    return moves


#: the workload access stream seed every control-loop harness shares
WORKLOAD_SEED = 1


def build_facade_loop(
    config: GeomancyConfig, *, seed: int, **wiring
) -> tuple[Geomancy, WorkloadRunner]:
    """Geomancy over an empty Bluesky testbed, and the runner that drives it.

    ``wiring`` goes to the :class:`Geomancy` constructor (a lossy
    ``telemetry`` transport, an ``obs`` instance, a ``journal`` ...).
    The runner gets no ReplayDB of its own and tolerates offline devices.
    No file is placed yet: a fresh loop places and warms up
    (:func:`start_facade_loop`), a resumed one restores a checkpoint.
    """
    cluster = make_bluesky_cluster(seed=seed)
    files = belle2_file_population(seed=seed)
    geo = Geomancy(cluster, files, config, **wiring)
    runner = WorkloadRunner(
        cluster,
        Belle2Workload(files, seed=WORKLOAD_SEED),
        tolerate_offline=True,
    )
    return geo, runner


def start_facade_loop(
    config: GeomancyConfig, *, seed: int, warmup_accesses: int, **wiring
) -> tuple[Geomancy, WorkloadRunner]:
    """:func:`build_facade_loop`, files placed, warmed up through the agents."""
    geo, runner = build_facade_loop(config, seed=seed, **wiring)
    geo.place_initial()
    warm_up_through_agents(geo, runner, warmup_accesses)
    return geo, runner


def absolute_fault_schedule(specs: tuple[str, ...]) -> FaultSchedule:
    """Parse ``specs`` for a loop with no baseline twin to scale them by."""
    schedule = FaultSchedule.from_specs(specs)
    if schedule.has_fractional_times:
        raise ExperimentError(
            "this harness needs absolute fault times "
            "(fractional '@N%' times depend on a baseline twin run)"
        )
    return schedule


def install_faults(
    cluster: StorageCluster,
    schedule: FaultSchedule,
    *,
    phase_start: float,
    migration_failure_rate: float,
    seed: int,
) -> FaultInjector:
    """An installed injector; schedule times count from ``phase_start``."""
    shifted = FaultSchedule(
        replace(event, at=event.at + phase_start) for event in schedule
    )
    return FaultInjector(
        cluster, shifted,
        migration_failure_rate=migration_failure_rate, seed=seed,
    ).install()


def warm_up_through_agents(
    geo: Geomancy, runner: WorkloadRunner, accesses: int
) -> None:
    """Run the workload until ``accesses`` rows landed in ``geo.db``.

    Every run's telemetry travels monitoring agents -> transport ->
    daemon; the run's stragglers are flushed at its last access's close
    time.
    """
    while geo.db.access_count() < accesses:
        records = runner.run_once().records
        geo.observe_records(records)
        geo.flush_telemetry(at=records[-1].close_time if records else 0.0)


def run_through_agents(
    geo: Geomancy,
    runner: WorkloadRunner,
    injector: FaultInjector | None = None,
) -> list[AccessRecord]:
    """One measured run of the facade loop; returns its access records.

    The injector's scheduled faults fire after each served access and
    once more at the end of the run; then the records go through the
    monitoring agents and everything still buffered is flushed, so the
    ReplayDB is current when the caller consults ``geo.after_run``.
    """
    obs = geo.obs
    with obs.span("simulator_advance"):
        records = runner.run_once(
            advance_hook=injector.advance if injector is not None else None
        ).records
        if injector is not None:
            injector.advance(runner.clock.now)
    with obs.span("telemetry_collect", records=len(records)):
        geo.observe_records(records)
    with obs.span("telemetry_flush"):
        geo.flush_telemetry(at=runner.clock.now)
    return records


@dataclass
class FacadeLoopResult:
    """What every measured facade loop reports; each harness adds its own."""

    seed: int
    scale_name: str
    runs_completed: int
    accesses: int
    mean_gbps: float
    final_layout: dict[int, str]
    movements: list[MovementRecord]

    def movement_fingerprint(self) -> tuple:
        """Hashable movement history for bit-for-bit determinism comparisons."""
        return tuple(
            (m.timestamp, m.fid, m.src_device, m.dst_device, m.succeeded)
            for m in self.movements
        )

    @classmethod
    def measured(
        cls,
        geo: Geomancy,
        throughput: list[float],
        *,
        seed: int,
        scale: ExperimentScale,
        runs_completed: int,
        **extra,
    ):
        """The shared fields read off ``geo``; ``extra`` fills a subclass's."""
        layout = geo.cluster.layout()
        return cls(
            seed=seed,
            scale_name=scale.name,
            runs_completed=runs_completed,
            accesses=len(throughput),
            mean_gbps=float(np.mean(throughput)) if throughput else 0.0,
            final_layout={spec.fid: layout[spec.fid] for spec in geo.files},
            movements=geo.db.movements(),
            **extra,
        )


def run_measured_loop(
    geo: Geomancy,
    runner: WorkloadRunner,
    runs: Iterable[int],
    *,
    injector: FaultInjector | None = None,
    each_run: Callable[[int, list[float], StepOutcome], None] | None = None,
) -> list[float]:
    """The measured phase: run, consult, book-keep -- once per run number.

    Every run is one observability tick around :func:`run_through_agents`
    and ``geo.after_run``, which is told the run's mean throughput so an
    enabled guardrail can hold it against the engine's prediction.
    ``each_run(run_number, per-access GB/s, outcome)`` is the harness's
    own bookkeeping; it may raise to abandon the loop.  The injector is
    uninstalled after the last run.  Returns every access's GB/s.
    """
    throughput: list[float] = []
    for run_number in runs:
        with geo.obs.tick(run_number):
            run_gbps = [
                float(record.throughput_gbps)
                for record in run_through_agents(geo, runner, injector)
            ]
            outcome = geo.after_run(
                run_number,
                runner.clock.now,
                realized_gbps=float(np.mean(run_gbps)) if run_gbps else None,
            )
        throughput.extend(run_gbps)
        if each_run is not None:
            each_run(run_number, run_gbps, outcome)
    if injector is not None:
        injector.uninstall()
    return throughput


def shuffled_warm_up(
    runner: WorkloadRunner,
    files: list[FileSpec],
    scale: ExperimentScale,
    *,
    seed: int,
) -> None:
    """Warm the runner's ReplayDB up under a random-dynamic layout.

    Telemetry lands in the DB but is not measured.  The layout is
    reshuffled every few runs so the warm-up telemetry covers (file,
    device) combinations -- the paper's warm-up data for Geomancy static
    likewise comes "from the dynamic random experiment".
    """
    cluster, db = runner.cluster, runner.db
    shuffler = RandomDynamicPolicy(seed=seed)
    runner.ensure_files_placed(
        shuffler.initial_layout(files, cluster.device_names)
    )
    warm_runs = 0
    while db.access_count() < scale.warmup_accesses:
        runner.run_once()
        warm_runs += 1
        if warm_runs % scale.update_every == 0:
            shuffled = shuffler.update_layout(db, files, cluster.device_names)
            if shuffled:
                cluster.apply_layout(shuffled, runner.clock.now)


def run_policy_experiment(
    policy: PlacementPolicy,
    *,
    scale: ExperimentScale = TEST_SCALE,
    seed: int = 0,
    workload_seed: int = 1,
    cluster: StorageCluster | None = None,
    files: list[FileSpec] | None = None,
) -> PolicyRunResult:
    """Measure one policy on the standard setup.

    All stochastic inputs (cluster interference, device noise, workload
    access stream) derive from ``seed``/``workload_seed``, so two policies
    run with the same seeds face exactly the same environment.
    """
    if cluster is None:
        cluster = make_bluesky_cluster(seed=seed)
    if files is None:
        files = belle2_file_population(seed=seed)
    workload = Belle2Workload(files, seed=workload_seed)
    db = ReplayDB()
    runner = WorkloadRunner(cluster, workload, db)

    # Every policy gets the identical warm-up for a fair comparison.
    shuffled_warm_up(runner, files, scale, seed=seed)

    # Hand the cluster over to the policy under test.
    layout = policy.initial_layout(files, cluster.device_names)
    cluster.apply_layout(layout, runner.clock.now)
    cluster.reset_stats()

    result = PolicyRunResult(policy_name=policy.name)
    run_number = 0
    while run_number < scale.runs:
        # Nothing can change the cluster between two consultations of the
        # policy, so the runs up to the next decision point are handed to
        # run_many in one group, which fuses them into a single
        # access_batch call (static policies fuse the whole measured
        # phase).  Record order, decision timing, and layouts are
        # exactly those of the one-run-at-a-time loop.
        if policy.dynamic:
            group = min(
                scale.update_every - run_number % scale.update_every,
                scale.runs - run_number,
            )
        else:
            group = scale.runs - run_number
        for run in runner.run_many(group):
            result.throughput_gbps.extend(
                r.throughput_gbps for r in run.records
            )
        run_number += group
        if policy.dynamic and run_number % scale.update_every == 0:
            moves = consult_policy(
                policy, db, cluster, files,
                cluster.available_device_names, runner.clock.now,
            )
            if moves:
                result.movements.append((result.access_count, len(moves)))
    result.usage_percent = cluster.usage_percent()
    for name in cluster.device_names:
        stats = cluster.device(name).stats
        if stats.accesses:
            result.device_throughput[name] = (
                stats.mean_throughput_gbps(),
                stats.std_throughput_gbps(),
            )
    return result
