"""Sharded multi-agent scale-out: thousands of devices, millions of files.

The paper runs one decision agent over one 6-device testbed.  This
experiment partitions a large cluster into shards
(:mod:`repro.sharding`): each shard runs its *own* full decision agent
-- engine, feature pipeline, ReplayDB slice -- over its own devices and
files, driven by the batched inner loop, and the spans are independent
seed-rebuilt cells, so ``experiments/parallel.py`` can execute them
process-parallel with submission-order merge.

At each fusion boundary the shards publish :class:`ShardDigest`
summaries and the :class:`ShardCoordinator` arbitrates cross-shard move
proposals against global capacity and throughput-margin invariants; the
accepted moves rebalance the partition for the next round.

Cost model (why sharding wins without extra cores): the decision epoch's
dominant term is the probe tensor -- (files with telemetry) x
(probe samples) x (devices).  Splitting both factors across ``n`` shards
shrinks the summed probe work to ``1/n`` of the unsharded epoch, so the
speedup is algorithmic; process parallelism stacks on top where cores
exist.

``shards=1`` is the single-agent path: the masked workload view passes
every op through unchanged, so the run is bit-for-bit identical to one
agent over the raw workload -- fingerprint-checked by the test suite
against ``tests/oracles/unsharded_scale.py``.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.core.config import GeomancyConfig
from repro.errors import ExperimentError, ShardingError
from repro.experiments.harness import consult_policy
from repro.experiments.parallel import run_cells
from repro.experiments.reporting import ascii_table
from repro.policies.geomancy_policy import GeomancyDynamicPolicy
from repro.replaydb.db import ReplayDB
from repro.sharding import (
    CrossShardMove,
    ShardCoordinator,
    ShardDigest,
    ShardPartitioner,
    select_exports,
    verify_moves,
)
from repro.sharding.coordinator import ExportCandidate
from repro.simulation.topologies import make_scaled_cluster
from repro.workloads.belle2 import Belle2Workload
from repro.workloads.files import FileSpec, belle2_file_population
from repro.workloads.runner import WorkloadRunner


def _peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes (high-water mark)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - ru_maxrss is bytes
        return int(peak)
    return int(peak) * 1024


@dataclass(frozen=True)
class ScalePoint:
    """One cell of the scale sweep: a cluster size and a shard count."""

    devices: int
    files: int
    shards: int = 1
    seed: int = 0
    #: unmeasured runs that seed each shard's ReplayDB slice
    warmup_runs: int = 2
    #: measured runs per fusion round
    runs: int = 10
    #: runs between decision-agent consultations
    update_every: int = 5
    #: fusion rounds (coordinator arbitration between consecutive rounds)
    rounds: int = 1
    files_per_run: int = 8
    #: global training-row budget, split evenly across shards
    training_rows: int = 400
    epochs: int = 2
    probe_samples: int = 4
    capacity_gb: int = 100
    #: apply the skill/ranking actionability gates; the benchmark pair
    #: runs with gates off so both sides always pay the full
    #: train+propose epoch (cost determinism), documented as measuring
    #: complete decision epochs
    gates: bool = True
    #: worst-served files each shard nominates per fusion boundary
    export_limit: int = 4
    margin: float = 0.10
    max_moves: int = 8

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ExperimentError(f"shards must be >= 1, got {self.shards}")
        if self.devices < self.shards:
            raise ExperimentError(
                f"need >= {self.shards} devices for {self.shards} shards, "
                f"got {self.devices}"
            )
        if self.files < 2:
            raise ExperimentError(f"files must be >= 2, got {self.files}")
        if self.warmup_runs < 0:
            raise ExperimentError(
                f"warmup_runs must be >= 0, got {self.warmup_runs}"
            )
        if self.runs < 1:
            raise ExperimentError(f"runs must be >= 1, got {self.runs}")
        if self.update_every < 1:
            raise ExperimentError(
                f"update_every must be >= 1, got {self.update_every}"
            )
        if self.rounds < 1:
            raise ExperimentError(f"rounds must be >= 1, got {self.rounds}")
        if self.files_per_run < 1:
            raise ExperimentError(
                f"files_per_run must be >= 1, got {self.files_per_run}"
            )
        if self.export_limit < 0:
            raise ExperimentError(
                f"export_limit must be >= 0, got {self.export_limit}"
            )


@dataclass(frozen=True)
class ShardSpanSpec:
    """One shard's span of one fusion round -- a picklable parallel cell.

    Everything a worker needs to rebuild the shard from scratch: the
    sweep point, the shard id, the run-index offset of this round, and
    the accumulated cross-shard reassignments ``(fid, dst_shard)``.
    """

    point: ScalePoint
    shard: int
    run_offset: int = 0
    reassigned: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class ShardSpanResult:
    """What one shard's agent did and measured over one span."""

    shard: int
    accesses: int
    measured_accesses: int
    decision_epochs: int
    decision_seconds: float
    simulation_seconds: float
    mean_throughput_gbps: float
    moved_files: int
    exports: tuple[ExportCandidate, ...]
    free_bytes: dict[str, int]
    fingerprint: str


class ShardWorkloadView:
    """A shard's masked view of the *global* access stream.

    Wraps the full-population :class:`Belle2Workload` and filters each
    run's op arrays down to the shard's files with a boolean fid lookup
    table, so the union of all shards' streams is exactly the global op
    multiset ("same workload" across shard counts).  With every file in
    the mask the arrays pass through value-identical -- the ``shards=1``
    bit-for-bit identity the benchmark fingerprints.
    """

    def __init__(
        self,
        workload: Belle2Workload,
        shard_files: list[FileSpec],
        total_files: int,
    ) -> None:
        self._workload = workload
        self.files = list(shard_files)
        mask = np.zeros(total_files, dtype=bool)
        for spec in self.files:
            if not 0 <= spec.fid < total_files:
                raise ShardingError(
                    f"fid {spec.fid} outside the dense population "
                    f"[0, {total_files})"
                )
            mask[spec.fid] = True
        self._mask = mask

    @property
    def fids(self) -> list[int]:
        return [f.fid for f in self.files]

    def run_arrays(self, run_index: int):
        fids, rb, wb = self._workload.run_arrays(run_index)
        sel = self._mask[fids]
        return fids[sel], rb[sel], wb[sel]

    def run(self, run_index: int):
        return [
            op for op in self._workload.run(run_index) if self._mask[op.fid]
        ]

    def expected_ops_per_run(self) -> float:
        total = len(self._workload.files)
        return self._workload.expected_ops_per_run() * len(self.files) / total


def _shard_config(point: ScalePoint, shard: int) -> GeomancyConfig:
    """The decision-agent config for one shard of a point.

    Shard 0 of a 1-shard point is exactly the unsharded config, so the
    identity fingerprint holds by construction.  The global training-row
    budget is split across shards (each agent trains on its slice), and
    with gates off the actionability MARE ceiling is lifted so every
    consultation pays the full train+propose epoch on both sides of the
    speedup pair.
    """
    return GeomancyConfig(
        training_rows=max(10, point.training_rows // point.shards),
        epochs=point.epochs,
        probe_samples=point.probe_samples,
        cooldown_runs=point.update_every,
        require_skill=point.gates,
        require_ranking_sanity=point.gates,
        max_actionable_mare=300.0 if point.gates else 1e18,
        seed=point.seed + shard,
    )


def _run_span(
    point: ScalePoint,
    *,
    shard: int,
    config: GeomancyConfig,
    cluster,
    files: list[FileSpec],
    workload,
    run_offset: int,
) -> ShardSpanResult:
    """Drive one decision agent over one span (the harness loop shape).

    ``workload`` is either the raw global :class:`Belle2Workload` (the
    oracle in ``tests/oracles/unsharded_scale.py``) or a
    :class:`ShardWorkloadView`; everything else
    is identical, which is what makes the ``shards=1`` fingerprint
    comparison meaningful.
    """
    db = ReplayDB()
    runner = WorkloadRunner(cluster, workload, db)
    runner.next_run_index = run_offset
    device_by_fsid = {
        cluster.device(name).fsid: name for name in cluster.device_names
    }
    policy = GeomancyDynamicPolicy(device_by_fsid, config)
    runner.ensure_files_placed(
        policy.initial_layout(files, cluster.device_names)
    )
    digest = hashlib.sha256()

    def observe(run_results) -> tuple[int, float]:
        count, tp_sum = 0, 0.0
        chunk: list[float] = []
        for run in run_results:
            for record in run.records:
                tp = record.throughput_gbps
                chunk.append(tp)
                tp_sum += tp
                count += 1
        digest.update(repr(chunk).encode())
        return count, tp_sum

    accesses = 0
    simulation_seconds = 0.0
    if point.warmup_runs:
        t0 = time.perf_counter()
        warm = runner.run_many(point.warmup_runs)
        simulation_seconds += time.perf_counter() - t0
        count, _ = observe(warm)
        accesses += count
    cluster.reset_stats()

    measured_accesses = 0
    throughput_sum = 0.0
    decision_epochs = 0
    decision_seconds = 0.0
    moved_files = 0
    run_number = 0
    while run_number < point.runs:
        group = min(
            point.update_every - run_number % point.update_every,
            point.runs - run_number,
        )
        t0 = time.perf_counter()
        batch = runner.run_many(group)
        simulation_seconds += time.perf_counter() - t0
        count, tp_sum = observe(batch)
        accesses += count
        measured_accesses += count
        throughput_sum += tp_sum
        run_number += group
        if run_number % point.update_every == 0:
            t0 = time.perf_counter()
            moved_files += len(
                consult_policy(
                    policy, db, cluster, files,
                    cluster.available_device_names, runner.clock.now,
                )
            )
            decision_seconds += time.perf_counter() - t0
            decision_epochs += 1

    digest.update(
        repr(
            (sorted(cluster.layout().items()), runner.clock.now, accesses)
        ).encode()
    )
    exports = select_exports(
        policy.engine.last_chosen_scores,
        {f.fid: f.size_bytes for f in files},
        shard=shard,
        limit=point.export_limit,
    )
    free_bytes = {
        name: int(
            cluster.device(name).spec.capacity_bytes
            - cluster.stored_bytes(name)
        )
        for name in cluster.available_device_names
    }
    return ShardSpanResult(
        shard=shard,
        accesses=accesses,
        measured_accesses=measured_accesses,
        decision_epochs=decision_epochs,
        decision_seconds=decision_seconds,
        simulation_seconds=simulation_seconds,
        mean_throughput_gbps=(
            throughput_sum / measured_accesses if measured_accesses else 0.0
        ),
        moved_files=moved_files,
        exports=exports,
        free_bytes=free_bytes,
        fingerprint=digest.hexdigest(),
    )


def _device_index(name: str) -> int:
    """Invert the ``dev{idx:05d}`` naming of the scaled factory."""
    return int(name[3:])


def run_shard_span(spec: ShardSpanSpec) -> ShardSpanResult:
    """One shard's span, rebuilt entirely from the spec (a parallel cell).

    The shard's devices come from the same pure per-index factory as the
    full cluster (``make_scaled_cluster`` slice), its files from the
    deterministic partitioner plus the accumulated cross-shard
    reassignments, and its op stream from the masked global workload --
    so any worker process arrives at the identical span.
    """
    point = spec.point
    files_all = belle2_file_population(point.files, seed=point.seed)
    names = [f"dev{i:05d}" for i in range(point.devices)]
    partitioner = ShardPartitioner(point.shards, seed=point.seed)
    assignment = partitioner.assign(names, files_all)
    if spec.reassigned:
        assignment = partitioner.rebalance(assignment, spec.reassigned)
    indices = sorted(
        _device_index(name) for name in assignment.devices_of(spec.shard)
    )
    cluster = make_scaled_cluster(
        point.devices,
        seed=point.seed,
        indices=indices,
        capacity_gb=point.capacity_gb,
    )
    owned = set(assignment.files_of(spec.shard))
    files = [f for f in files_all if f.fid in owned]
    if not files:
        raise ShardingError(
            f"shard {spec.shard} owns no files -- rebalance drained it"
        )
    workload = Belle2Workload(
        files_all, seed=point.seed + 1, files_per_run=point.files_per_run
    )
    view = ShardWorkloadView(workload, files, point.files)
    return _run_span(
        point,
        shard=spec.shard,
        config=_shard_config(point, spec.shard),
        cluster=cluster,
        files=files,
        workload=view,
        run_offset=spec.run_offset,
    )


@dataclass(frozen=True)
class ScalePointResult:
    """Aggregated outcome of one sweep point (all rounds, all shards)."""

    point: ScalePoint
    accesses: int
    measured_accesses: int
    decision_epochs: int
    decision_seconds: float
    simulation_seconds: float
    wall_seconds: float
    mean_throughput_gbps: float
    moved_files: int
    cross_shard_moves: int
    cross_shard_bytes: int
    peak_rss_bytes: int
    fingerprint: str

    @property
    def total_seconds(self) -> float:
        """Decision + simulation time -- the epoch cost sharding targets."""
        return self.decision_seconds + self.simulation_seconds

    @property
    def accesses_per_second(self) -> float:
        if self.simulation_seconds <= 0.0:
            return 0.0
        return self.accesses / self.simulation_seconds

    def to_json(self) -> dict:
        return {
            **asdict(self.point),
            "accesses": self.accesses,
            "measured_accesses": self.measured_accesses,
            "decision_epochs": self.decision_epochs,
            "decision_seconds": self.decision_seconds,
            "simulation_seconds": self.simulation_seconds,
            "total_seconds": self.total_seconds,
            "wall_seconds": self.wall_seconds,
            "accesses_per_second": self.accesses_per_second,
            "mean_throughput_gbps": self.mean_throughput_gbps,
            "moved_files": self.moved_files,
            "cross_shard_moves": self.cross_shard_moves,
            "cross_shard_bytes": self.cross_shard_bytes,
            "peak_rss_bytes": self.peak_rss_bytes,
            "fingerprint": self.fingerprint,
        }


def _point_result(
    point: ScalePoint,
    spans: list[tuple[int, ShardSpanResult]],
    t_start: float,
    cross_moves: list[CrossShardMove] = (),
) -> ScalePointResult:
    """Fold a point's ``(round, span)`` results into one row."""
    measured_accesses = sum(span.measured_accesses for _, span in spans)
    throughput_weighted = sum(
        span.mean_throughput_gbps * span.measured_accesses
        for _, span in spans
    )
    fingerprints = tuple(
        (round_index, span.shard, span.fingerprint)
        for round_index, span in spans
    )
    return ScalePointResult(
        point=point,
        accesses=sum(span.accesses for _, span in spans),
        measured_accesses=measured_accesses,
        decision_epochs=sum(span.decision_epochs for _, span in spans),
        decision_seconds=sum(span.decision_seconds for _, span in spans),
        simulation_seconds=sum(span.simulation_seconds for _, span in spans),
        wall_seconds=time.perf_counter() - t_start,
        mean_throughput_gbps=(
            throughput_weighted / measured_accesses
            if measured_accesses
            else 0.0
        ),
        moved_files=sum(span.moved_files for _, span in spans),
        cross_shard_moves=len(cross_moves),
        cross_shard_bytes=sum(m.size_bytes for m in cross_moves),
        peak_rss_bytes=_peak_rss_bytes(),
        fingerprint=hashlib.sha256(repr(fingerprints).encode()).hexdigest(),
    )


def run_scale_point(
    point: ScalePoint, *, workers: int = 1
) -> ScalePointResult:
    """Run every shard of every fusion round of one sweep point.

    Rounds are sequential (round ``r+1``'s partition depends on round
    ``r``'s arbitration); within a round the shard spans are independent
    cells executed through :func:`repro.experiments.parallel.run_cells`
    and merged in submission order, so any worker count yields identical
    results.  Between rounds the coordinator arbitrates the shards'
    export digests and every accepted move is independently re-verified
    before it rebalances the partition.
    """
    t_start = time.perf_counter()
    coordinator = ShardCoordinator(
        margin=point.margin, max_moves=point.max_moves
    )
    # Partition state lives in `reassigned`; every span re-derives the
    # full assignment from (point, reassigned), so no partitioner object
    # needs to cross the process boundary.
    reassigned: tuple[tuple[int, int], ...] = ()
    runs_per_round = point.warmup_runs + point.runs
    all_spans: list[tuple[int, ShardSpanResult]] = []
    cross_moves: list[CrossShardMove] = []
    for round_index in range(point.rounds):
        specs = [
            ShardSpanSpec(
                point=point,
                shard=shard,
                run_offset=round_index * runs_per_round,
                reassigned=reassigned,
            )
            for shard in range(point.shards)
        ]
        spans = run_cells(run_shard_span, specs, workers=workers)
        all_spans.extend((round_index, span) for span in spans)
        if point.shards > 1 and round_index < point.rounds - 1:
            digests = [
                ShardDigest(
                    shard=span.shard,
                    mean_throughput_gbps=span.mean_throughput_gbps,
                    free_bytes=span.free_bytes,
                    exports=span.exports,
                )
                for span in spans
            ]
            moves = coordinator.arbitrate(digests)
            verify_moves(
                digests, moves, margin=point.margin, max_moves=point.max_moves
            )
            cross_moves.extend(moves)
            reassigned = reassigned + tuple(
                (move.fid, move.dst_shard) for move in moves
            )
    return _point_result(point, all_spans, t_start, cross_moves)


_SWEEP_HEADERS = (
    "devices", "files", "shards", "accesses", "epochs",
    "decision s", "sim s", "GB/s", "xmoves", "peak RSS MB",
)


def _sweep_row(result: ScalePointResult) -> list:
    point = result.point
    return [
        point.devices,
        point.files,
        point.shards,
        result.accesses,
        result.decision_epochs,
        f"{result.decision_seconds:.3f}",
        f"{result.simulation_seconds:.3f}",
        f"{result.mean_throughput_gbps:.3f}",
        result.cross_shard_moves,
        f"{result.peak_rss_bytes / 1e6:.0f}",
    ]


@dataclass
class ScaleSweepResult:
    """A devices x files x shards sweep."""

    results: list[ScalePointResult] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "benchmark": "scale_sweep",
            "points": [result.to_json() for result in self.results],
        }

    def write_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json(), indent=2) + "\n")
        return path

    def to_text(self) -> str:
        return ascii_table(
            _SWEEP_HEADERS,
            [_sweep_row(result) for result in self.results],
            title="Scale sweep (sharded multi-agent)",
        )


def run_scale(
    points: list[ScalePoint] | tuple[ScalePoint, ...], *, workers: int = 1
) -> ScaleSweepResult:
    """Run a sweep of scale points (sequentially; shards parallelize)."""
    if not points:
        raise ExperimentError("need at least one scale point")
    return ScaleSweepResult(
        results=[run_scale_point(point, workers=workers) for point in points]
    )


@dataclass
class ScaleBenchmarkResult:
    """The shipped scale benchmark: speedup pair + sweep."""

    unsharded: ScalePointResult
    sharded: ScalePointResult
    sweep: ScaleSweepResult

    @property
    def decision_epoch_speedup(self) -> float:
        if self.sharded.decision_seconds <= 0.0:
            return float("inf")
        return self.unsharded.decision_seconds / self.sharded.decision_seconds

    @property
    def simulation_throughput_speedup(self) -> float:
        base = self.unsharded.accesses_per_second
        if base <= 0.0:
            return float("inf")
        return self.sharded.accesses_per_second / base

    @property
    def overall_speedup(self) -> float:
        if self.sharded.total_seconds <= 0.0:
            return float("inf")
        return self.unsharded.total_seconds / self.sharded.total_seconds

    def to_json(self) -> dict:
        return {
            "benchmark": "scale",
            "pair": {
                "unsharded": self.unsharded.to_json(),
                "sharded": self.sharded.to_json(),
                "decision_epoch_speedup": self.decision_epoch_speedup,
                "simulation_throughput_speedup": (
                    self.simulation_throughput_speedup
                ),
                "overall_speedup": self.overall_speedup,
            },
            "sweep": self.sweep.to_json()["points"],
        }

    def write_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json(), indent=2) + "\n")
        return path

    def to_text(self) -> str:
        pair = ascii_table(
            _SWEEP_HEADERS,
            [_sweep_row(self.unsharded), _sweep_row(self.sharded)],
            title="Speedup pair (same workload, 1 vs N shards)",
        )
        lines = [
            pair,
            f"decision-epoch speedup:       "
            f"{self.decision_epoch_speedup:.2f}x",
            f"simulation throughput ratio:  "
            f"{self.simulation_throughput_speedup:.2f}x",
            f"overall epoch speedup:        {self.overall_speedup:.2f}x",
            "",
            self.sweep.to_text(),
        ]
        return "\n".join(lines)


def run_scale_benchmark(
    *, seed: int = 0, workers: int = 1, big_sweep: bool = True
) -> ScaleBenchmarkResult:
    """The acceptance benchmark behind ``BENCH_scale.json``.

    Two parts: the 1-vs-8-shard speedup pair on an identical workload
    sized so the probe tensor dominates the epoch, and a sweep from a
    small single-agent point up to >= 10^3 devices x 10^5 files x 16
    shards proving the partitioned system holds at scale within a CI
    budget.
    """
    small_point = ScalePoint(
        devices=16,
        files=64,
        shards=1,
        seed=seed,
        warmup_runs=2,
        runs=6,
        update_every=3,
        rounds=2,
        files_per_run=4,
        training_rows=200,
        epochs=2,
        probe_samples=4,
        gates=False,
    )
    small = run_scale_point(small_point, workers=workers)

    pair_point = ScalePoint(
        devices=512,
        files=4096,
        shards=1,
        seed=seed,
        warmup_runs=3,
        runs=10,
        update_every=5,
        rounds=1,
        files_per_run=32,
        training_rows=400,
        epochs=2,
        probe_samples=4,
        gates=False,
    )
    unsharded = run_scale_point(pair_point, workers=workers)
    sharded = run_scale_point(
        replace(pair_point, shards=8), workers=workers
    )

    sweep = ScaleSweepResult(results=[small, unsharded, sharded])
    if big_sweep:
        big_point = ScalePoint(
            devices=1024,
            files=100_000,
            shards=16,
            seed=seed,
            warmup_runs=2,
            runs=6,
            update_every=3,
            rounds=1,
            files_per_run=32,
            training_rows=400,
            epochs=1,
            probe_samples=4,
            gates=False,
        )
        sweep.results.append(run_scale_point(big_point, workers=workers))
    return ScaleBenchmarkResult(
        unsharded=unsharded,
        sharded=sharded,
        sweep=sweep,
    )
