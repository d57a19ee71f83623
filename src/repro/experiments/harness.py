"""The policy loop: Experiment 1 and 2 machinery.

:func:`run_policy_experiment` runs one policy on a fresh Bluesky cluster
with the same seeded workload and interference as every other policy in
the comparison:

1. warm up under a random-dynamic shuffle until the ReplayDB holds the
   configured access count ("BELLE 2 is run until Geomancy's monitoring
   agents can capture 10000 accesses");
2. hand the cluster over to the policy's initial layout;
3. run the measured phase, consulting dynamic policies every
   ``update_every`` runs (movement overhead lands on the shared devices
   and is therefore part of every measurement).

Every consultation is one :meth:`~repro.core.geomancy.Geomancy.safety_step`
of a facade over the runner's ReplayDB: ``after_run``'s learner for
Geomancy, a :meth:`~repro.core.geomancy.Geomancy.policy_act` for a
baseline.  The runner, not the facade's per-device monitoring agents,
lands the telemetry, so the ReplayDB rows keep access order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.core.config import GeomancyConfig
from repro.core.geomancy import Geomancy
from repro.errors import ExperimentError
from repro.experiments.spec import ExperimentScale, TEST_SCALE
from repro.policies.base import PlacementPolicy
from repro.policies.random_policy import RandomDynamicPolicy
from repro.policies.static import EvenSpreadPolicy
from repro.replaydb.db import ReplayDB
from repro.simulation.bluesky import make_bluesky_cluster
from repro.simulation.cluster import StorageCluster
from repro.workloads.belle2 import Belle2Workload
from repro.workloads.files import FileSpec, belle2_file_population
from repro.workloads.runner import WorkloadRunner

#: seed of the BELLE II access stream every experiment and control-loop
#: harness measures under
WORKLOAD_SEED = 1
#: the learner's cell name in every policy comparison
GEOMANCY = "Geomancy dynamic"


def bluesky_runner(seed: int, *, db: ReplayDB | None = None) -> WorkloadRunner:
    """The BELLE II workload over a fresh Bluesky cluster and file
    population, both built from ``seed``, landing its telemetry in
    ``db`` when given."""
    cluster = make_bluesky_cluster(seed=seed)
    files = belle2_file_population(seed=seed)
    return WorkloadRunner(
        cluster, Belle2Workload(files, seed=WORKLOAD_SEED), db
    )


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


def shuffled_warm_up(
    runner: WorkloadRunner, scale: ExperimentScale, *, seed: int
) -> None:
    """Warm the runner's ReplayDB up under a random-dynamic layout.

    Telemetry lands in the DB but is not measured.  The layout is
    reshuffled every few runs so the warm-up telemetry covers (file,
    device) combinations -- the paper's warm-up data for Geomancy static
    likewise comes "from the dynamic random experiment".
    """
    cluster, db, files = runner.cluster, runner.db, runner.workload.files
    shuffler = RandomDynamicPolicy(seed=seed)
    runner.ensure_files_placed(
        shuffler.initial_layout(files, cluster.device_names)
    )
    warm_runs = 0
    while db.access_count() < scale.warmup_accesses:
        runner.run_many(1)
        warm_runs += 1
        if warm_runs % scale.update_every == 0:
            shuffled = shuffler.update_layout(db, files, cluster.device_names)
            if shuffled:
                cluster.apply_layout(shuffled, runner.clock.now)


def run_policy_experiment(
    policy: PlacementPolicy | GeomancyConfig,
    *,
    scale: ExperimentScale = TEST_SCALE,
    seed: int = 0,
    cluster: StorageCluster | None = None,
    files: list[FileSpec] | None = None,
) -> PolicyRunResult:
    """Measure one policy on the standard setup.

    ``policy`` is a baseline, or the :class:`GeomancyConfig` of the
    learner itself (:data:`GEOMANCY`).  All stochastic inputs (cluster
    interference, device noise, workload access stream) derive from
    ``seed``/:data:`WORKLOAD_SEED`, so two policies run with the same
    seed face exactly the same environment.
    """
    if cluster is None:
        cluster = make_bluesky_cluster(seed=seed)
    if files is None:
        files = belle2_file_population(seed=seed)
    runner = WorkloadRunner(
        cluster, Belle2Workload(files, seed=WORKLOAD_SEED), ReplayDB()
    )
    learner = isinstance(policy, GeomancyConfig)
    geo = Geomancy(
        cluster, files,
        policy if learner else make_experiment_config(scale, seed=seed),
        db=runner.db,
    )

    # Every policy gets the identical warm-up for a fair comparison.
    shuffled_warm_up(runner, scale, seed=seed)

    # Hand the cluster over to the policy under test.
    if learner:
        initial, step = EvenSpreadPolicy(), geo.after_run
        result = PolicyRunResult(policy_name=GEOMANCY)
    else:
        initial = policy
        step = partial(
            geo.safety_step, act=geo.policy_act(policy, kind="policy")
        )
        result = PolicyRunResult(policy_name=policy.name)
    dynamic = learner or policy.dynamic
    cluster.apply_layout(
        initial.initial_layout(files, cluster.device_names), runner.clock.now
    )
    cluster.reset_stats()

    # The facade's cooldown is the consultation cadence (the scale's
    # ``update_every`` unless the learner's config says otherwise).
    every, run_number = geo.config.cooldown_runs, 0
    while run_number < scale.runs:
        # Nothing can change the cluster between two consultations of the
        # policy, so the runs up to the next decision point are handed to
        # run_many in one group, which fuses them into a single
        # access_batch call (static policies fuse the whole measured
        # phase).  Record order, decision timing, and layouts are
        # exactly those of the one-run-at-a-time loop.
        if dynamic:
            group = min(
                every - run_number % every, scale.runs - run_number
            )
        else:
            group = scale.runs - run_number
        for run in runner.run_many(group):
            result.throughput_gbps.extend(
                r.throughput_gbps for r in run.records
            )
        run_number += group
        if dynamic and run_number % every == 0:
            moved = step(run_number, runner.clock.now).moved_files
            if moved:
                result.movements.append((result.access_count, moved))
    result.usage_percent = cluster.usage_percent()
    for name in cluster.device_names:
        stats = cluster.device(name).stats
        if stats.accesses:
            result.device_throughput[name] = (
                stats.mean_throughput_gbps(),
                stats.std_throughput_gbps(),
            )
    return result
