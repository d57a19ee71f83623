"""Fig. 6: Geomancy adapting after a competing workload appears.

Experiment 3 of the paper: a Geomancy-tuned workload runs alone, then "a
duplicate workload (not tuned by Geomancy) accessing a different set of
data" starts on the same mounts.  "Although the original performance drops,
Geomancy is able to respond to the changes and attempt to push performance
back to what it once was."
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.geomancy import Geomancy
from repro.errors import ExperimentError
from repro.experiments.harness import bluesky_runner, make_experiment_config
from repro.experiments.reporting import (
    BUCKET_ACCESSES,
    bucket_series,
    sparkline,
)
from repro.experiments.spec import ExperimentScale
from repro.replaydb.db import ReplayDB
from repro.simulation.clock import SimulationClock
from repro.workloads.interference import make_competing_workload
from repro.workloads.runner import WorkloadRunner

#: share of the post-disturbance series ``dip_ratio`` averages, from its start
HEAD_FRACTION = 0.2
#: share of the post-disturbance series ``recovery_ratio`` averages, at its end
TAIL_FRACTION = 0.3
#: share of the pre-disturbance mean that counts as recovered ...
RECOVERY_THRESHOLD = 0.9
#: ... by a trailing mean over this many accesses
RECOVERY_WINDOW = 200

@dataclass
class Fig6Result:
    """Per-access series for the tuned and competing workloads."""

    tuned_gbps: list[float] = field(default_factory=list)
    competing_gbps: list[float] = field(default_factory=list)
    #: tuned-workload access number at which the competitor started
    disturbance_access: int = 0

    def tuned_before(self) -> np.ndarray:
        return np.asarray(self.tuned_gbps[: self.disturbance_access])

    def tuned_after(self) -> np.ndarray:
        return np.asarray(self.tuned_gbps[self.disturbance_access :])

    def _sides(self) -> tuple[np.ndarray, np.ndarray]:
        """The non-empty tuned series before and after the disturbance."""
        before, after = self.tuned_before(), self.tuned_after()
        if before.size == 0 or after.size == 0:
            raise ExperimentError("need accesses on both sides of the disturbance")
        return before, after

    def recovery_ratio(self) -> float:
        """Late post-disturbance throughput relative to pre-disturbance.

        1.0 means fully recovered; the immediate post-disturbance dip is
        excluded by looking only at the final :data:`TAIL_FRACTION` of the
        post-disturbance series.
        """
        before, after = self._sides()
        tail = after[int(len(after) * (1.0 - TAIL_FRACTION)) :]
        return float(tail.mean() / before.mean())

    def dip_ratio(self) -> float:
        """Throughput over the first :data:`HEAD_FRACTION` of the
        post-disturbance series relative to before."""
        before, after = self._sides()
        head = after[: max(1, int(len(after) * HEAD_FRACTION))]
        return float(head.mean() / before.mean())

    def recovery_accesses(self) -> int | None:
        """Accesses after the disturbance until throughput recovers.

        Recovery is the first post-disturbance access whose trailing
        :data:`RECOVERY_WINDOW`-access mean reaches
        :data:`RECOVERY_THRESHOLD` of the pre-disturbance mean; ``None``
        if the series never gets there.
        This is the "how fast did it adapt" companion to the "how far
        did it get back" :meth:`recovery_ratio`.
        """
        before, after = self._sides()
        target = RECOVERY_THRESHOLD * before.mean()
        window = min(RECOVERY_WINDOW, after.size)
        rolling = np.convolve(after, np.ones(window) / window, mode="valid")
        hits = np.nonzero(rolling >= target)[0]
        if hits.size == 0:
            return None
        return int(hits[0]) + window

    def to_text(self) -> str:
        _, tuned = bucket_series(self.tuned_gbps, BUCKET_ACCESSES)
        _, competing = bucket_series(self.competing_gbps, BUCKET_ACCESSES)
        lines = [
            "Fig. 6 -- response to a competing workload",
            f"tuned workload    : {sparkline(tuned)}",
            f"competing workload: {sparkline(competing)}",
            f"disturbance at tuned access #{self.disturbance_access}",
            f"dip ratio {self.dip_ratio():.2f}, "
            f"recovery ratio {self.recovery_ratio():.2f}",
        ]
        recovery = self.recovery_accesses()
        lines.append(
            "recovered to 90% of pre-disturbance throughput after "
            + (f"{recovery} accesses" if recovery is not None else "(never)")
        )
        return "\n".join(lines)


def run_fig6(
    *, scale: ExperimentScale, seed: int, online: bool
) -> Fig6Result:
    """Regenerate Fig. 6.

    Phase 1: the tuned workload runs alone for half of ``scale.runs``
    (at least one consultation's worth) with Geomancy relayouts.  Phase
    2: the duplicate untuned workload joins on the same cluster (shared
    clock, shared device contention) for ``scale.runs`` interleaved
    runs; Geomancy keeps tuning only the original workload.

    ``online=True`` drives every relayout through the continual-learning
    engine (``train_incremental`` + prioritized replay) instead of
    from-scratch retraining.
    """
    runs_before = max(scale.runs // 2, scale.update_every)
    runner = bluesky_runner(seed, db=ReplayDB())
    cluster, clock = runner.cluster, runner.clock
    files = runner.workload.files
    # The runner lands the tuned workload's telemetry; the facade decides.
    geo = Geomancy(
        cluster, files,
        make_experiment_config(scale, seed=seed, online_learning=online),
        db=runner.db,
    )
    geo.place_initial()
    runner.warm_up(scale.warmup_accesses)

    result = Fig6Result()
    run_number = 0

    def run_finished() -> None:
        nonlocal run_number
        run_number += 1
        geo.after_run(run_number, clock.now)

    # Phase 1: alone.
    for _ in range(runs_before):
        result.tuned_gbps.extend(
            r.throughput_gbps for r in runner.run_many(1)[0].records
        )
        run_finished()
    result.disturbance_access = len(result.tuned_gbps)

    # Phase 2: the duplicate workload joins, untouched by Geomancy.  Its
    # files mirror the tuned workload's current placement so the two
    # "access common mounts" (section VI-c) and genuinely contend; the
    # duplicate never moves afterwards.
    dup_files, dup_workload = make_competing_workload(seed=seed + 99)
    # The duplicate gets its own clock seeded to "now": both workloads then
    # issue accesses at overlapping simulated timestamps, which is what
    # makes them contend inside the devices' utilization windows.  (On a
    # shared clock the accesses would serialize and never overlap.)
    dup_runner = WorkloadRunner(
        cluster, dup_workload, clock=SimulationClock(clock.now)
    )
    tuned_layout = cluster.layout()
    offset = dup_files[0].fid - files[0].fid
    mirror = {
        dup.fid: tuned_layout.get(
            dup.fid - offset,
            cluster.device_names[dup.fid % len(cluster.device_names)],
        )
        for dup in dup_files
    }
    dup_runner.ensure_files_placed(mirror)
    # Interleave the two workloads access-by-access so they genuinely
    # contend inside each device's utilization window.
    def interleaved_tuned_run() -> None:
        tuned_stream = runner.run_stream()
        dup_stream = dup_runner.run_stream()
        while True:
            progressed = False
            record = next(tuned_stream, None)
            if record is not None:
                result.tuned_gbps.append(record.throughput_gbps)
                progressed = True
            dup_record = next(dup_stream, None)
            if dup_record is not None:
                result.competing_gbps.append(dup_record.throughput_gbps)
                progressed = True
            if not progressed:
                break
        run_finished()

    for _ in range(scale.runs):
        interleaved_tuned_run()
    return result
