"""The policy loop every paper figure decided through before the facade.

A dynamic policy was consulted by the experiment harness itself: the
present placement of the tuned files, ``update_layout``, ``apply_layout``
and the movements inserted into the ReplayDB (:func:`consult_policy`).
Geomancy took part through :class:`DynamicPolicyAdapter`, which walked
``DecisionPath.decide`` with an even-spread initial layout.  Here both
loops run one workload run at a time: Fig. 5's cell
(:func:`run_policy_cell`) and Fig. 6 (:func:`run_fig6_cell`).

``src/`` now makes every such decision in ``Geomancy.safety_step``; the
throughput series and the movement lists must come out element for
element the same.
"""

from __future__ import annotations

from repro.core.config import GeomancyConfig
from repro.core.decision import DecisionPath
from repro.experiments.fig6_adaptation import Fig6Result
from repro.experiments.harness import (
    PolicyRunResult,
    bluesky_runner,
    make_experiment_config,
    shuffled_warm_up,
)
from repro.experiments.spec import ExperimentScale
from repro.policies.base import PlacementPolicy, spread_in_groups
from repro.replaydb.db import ReplayDB
from repro.replaydb.records import MovementRecord
from repro.simulation.clock import SimulationClock
from repro.simulation.cluster import StorageCluster
from repro.workloads.files import FileSpec
from repro.workloads.interference import make_competing_workload
from repro.workloads.runner import WorkloadRunner

class DynamicPolicyAdapter(PlacementPolicy):
    """Geomancy's decision path behind the ``PlacementPolicy`` interface."""

    name = "Geomancy dynamic"
    dynamic = True

    def __init__(
        self, device_by_fsid: dict[int, str], config: GeomancyConfig
    ) -> None:
        self.decision_path = DecisionPath(config)
        self.device_by_fsid = dict(device_by_fsid)

    def initial_layout(
        self, files: list[FileSpec], devices: list[str]
    ) -> dict[int, str]:
        return spread_in_groups(sorted(f.fid for f in files), list(devices))

    def update_layout(
        self,
        db: ReplayDB,
        files: list[FileSpec],
        devices: list[str],
        current: dict[int, str] | None = None,
    ) -> dict[int, str] | None:
        decision = self.decision_path.decide(
            db,
            [f.fid for f in files],
            self.device_by_fsid,
            set(devices),
            current,
        )
        return decision.layout or None


def adapter_for(
    cluster: StorageCluster, config: GeomancyConfig
) -> DynamicPolicyAdapter:
    """The adapter over every device of ``cluster``."""
    return DynamicPolicyAdapter(
        {cluster.device(name).fsid: name for name in cluster.device_names},
        config,
    )


def consult_policy(
    policy: PlacementPolicy,
    db: ReplayDB,
    cluster: StorageCluster,
    files: list[FileSpec],
    devices: list[str],
    t: float,
) -> list[MovementRecord]:
    """One consultation of a dynamic policy; returns the moves it caused."""
    current = cluster.layout({f.fid for f in files})
    layout = policy.update_layout(db, files, devices, current)
    if not layout:
        return []
    moves = cluster.apply_layout(layout, t)
    if moves:
        db.insert_movements(moves)
    return moves


def run_policy_cell(
    policy: PlacementPolicy, *, scale: ExperimentScale, seed: int
) -> PolicyRunResult:
    """One Fig. 5 cell: warm-up, hand-over, consultations every
    ``scale.update_every`` runs; pass :func:`adapter_for` as Geomancy."""
    runner = bluesky_runner(seed, db=ReplayDB())
    cluster, db, files = runner.cluster, runner.db, runner.workload.files
    shuffled_warm_up(runner, scale, seed=seed)
    cluster.apply_layout(
        policy.initial_layout(files, cluster.device_names), runner.clock.now
    )
    cluster.reset_stats()
    result = PolicyRunResult(policy_name=policy.name)
    for run_number in range(1, scale.runs + 1):
        result.throughput_gbps.extend(
            r.throughput_gbps for r in runner.run_many(1)[0].records
        )
        if policy.dynamic and run_number % scale.update_every == 0:
            moves = consult_policy(
                policy, db, cluster, files,
                cluster.available_device_names, runner.clock.now,
            )
            if moves:
                result.movements.append((result.access_count, len(moves)))
    return result


def run_fig6_cell(
    *, scale: ExperimentScale, seed: int, online: bool
) -> Fig6Result:
    """Fig. 6 with the adapter consulted every ``scale.update_every``
    tuned runs, alone and then beside the untuned duplicate."""
    runs_before = max(scale.runs // 2, scale.update_every)
    runner = bluesky_runner(seed, db=ReplayDB())
    cluster, clock, db = runner.cluster, runner.clock, runner.db
    files = runner.workload.files
    policy = adapter_for(
        cluster,
        make_experiment_config(scale, seed=seed, online_learning=online),
    )
    runner.ensure_files_placed(
        policy.initial_layout(files, cluster.device_names)
    )
    runner.warm_up(scale.warmup_accesses)
    result = Fig6Result()

    def run_finished(run_number: int) -> None:
        if run_number % scale.update_every == 0:
            consult_policy(
                policy, db, cluster, files, cluster.device_names, clock.now
            )

    for run_number in range(1, runs_before + 1):
        result.tuned_gbps.extend(
            r.throughput_gbps for r in runner.run_many(1)[0].records
        )
        run_finished(run_number)
    result.disturbance_access = len(result.tuned_gbps)

    dup_files, dup_workload = make_competing_workload(seed=seed + 99)
    dup_runner = WorkloadRunner(
        cluster, dup_workload, clock=SimulationClock(clock.now)
    )
    tuned_layout = cluster.layout()
    offset = dup_files[0].fid - files[0].fid
    dup_runner.ensure_files_placed({
        dup.fid: tuned_layout.get(
            dup.fid - offset,
            cluster.device_names[dup.fid % len(cluster.device_names)],
        )
        for dup in dup_files
    })
    for run_number in range(runs_before + 1, runs_before + scale.runs + 1):
        tuned, dup = runner.run_stream(), dup_runner.run_stream()
        while True:
            record, dup_record = next(tuned, None), next(dup, None)
            if record is not None:
                result.tuned_gbps.append(record.throughput_gbps)
            if dup_record is not None:
                result.competing_gbps.append(dup_record.throughput_gbps)
            if record is None and dup_record is None:
                break
        run_finished(run_number)
    return result
