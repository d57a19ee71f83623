"""Robustness studies: cross-seed stability and chaos engineering.

The paper evaluates one live system; our substrate lets the same comparison
re-run under many random environments.  ``run_robustness`` repeats Fig. 5a
across seeds and reports Geomancy's gain over the best dynamic baseline per
seed plus summary statistics -- the honest error bars EXPERIMENTS.md quotes.

``run_chaos`` goes further: it runs the BELLE II workload twice with
identical seeds -- once fault-free, once under a fault schedule (device
kills/degradations, mid-transfer migration aborts, lossy telemetry) -- and
reports throughput retention, recovery time after outages, and every
resilience counter the control plane exposes.  Fault injection draws only
from seeded generators, so a fixed seed reproduces the byte-identical
movement history.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ExperimentError
from repro.experiments.fig5_comparison import (
    FIG5A_POLICIES,
    GEOMANCY,
    run_policy_grid,
)
from repro.experiments.facade import FacadeRun, Faults, run_facade
from repro.experiments.harness import make_experiment_config
from repro.experiments.reporting import ascii_table
from repro.experiments.spec import ExperimentScale, TEST_SCALE
from repro.faults.schedule import FaultSchedule
from repro.replaydb.records import MovementRecord


@dataclass
class SeedOutcome:
    """One seed's Fig. 5a summary."""

    seed: int
    geomancy_gbps: float
    best_baseline: str
    best_baseline_gbps: float

    @property
    def gain_percent(self) -> float:
        return (
            (self.geomancy_gbps - self.best_baseline_gbps)
            / self.best_baseline_gbps
            * 100.0
        )

    @property
    def won(self) -> bool:
        return self.geomancy_gbps > self.best_baseline_gbps


@dataclass
class RobustnessResult:
    """Fig. 5a repeated across seeds."""

    outcomes: list[SeedOutcome]

    def __post_init__(self) -> None:
        if not self.outcomes:
            raise ExperimentError("no seeds were run")

    @property
    def win_rate(self) -> float:
        return sum(o.won for o in self.outcomes) / len(self.outcomes)

    @property
    def median_gain_percent(self) -> float:
        return float(np.median([o.gain_percent for o in self.outcomes]))

    @property
    def gain_range(self) -> tuple[float, float]:
        gains = [o.gain_percent for o in self.outcomes]
        return (min(gains), max(gains))

    def to_text(self) -> str:
        rows = [
            (
                o.seed,
                f"{o.geomancy_gbps:.2f}",
                f"{o.best_baseline} ({o.best_baseline_gbps:.2f})",
                f"{o.gain_percent:+.1f}%",
                "win" if o.won else "loss",
            )
            for o in self.outcomes
        ]
        table = ascii_table(
            ["seed", "Geomancy GB/s", "best baseline", "gain", ""],
            rows,
            title="Fig. 5a robustness across environment seeds",
        )
        lo, hi = self.gain_range
        return (
            f"{table}\n"
            f"win rate {self.win_rate:.0%}, median gain "
            f"{self.median_gain_percent:+.1f}% (range {lo:+.1f}% .. {hi:+.1f}%)"
        )


def run_robustness(
    *, scale: ExperimentScale, seeds: Sequence[int], workers: int
) -> RobustnessResult:
    """Repeat Fig. 5a for each seed, as one (policy x seed) grid."""
    if not seeds:
        raise ExperimentError("need at least one seed")
    outcomes = []
    for seed, fig5 in zip(
        seeds,
        run_policy_grid(
            FIG5A_POLICIES, scale=scale, seeds=seeds, workers=workers
        ),
    ):
        best = fig5.best_baseline()
        outcomes.append(
            SeedOutcome(
                seed=seed,
                geomancy_gbps=fig5.mean(GEOMANCY),
                best_baseline=best,
                best_baseline_gbps=fig5.mean(best),
            )
        )
    return RobustnessResult(outcomes=outcomes)


# -- chaos engineering ---------------------------------------------------

#: kill 2 of the 6 Bluesky mounts partway through the measured phase
DEFAULT_CHAOS_SCHEDULE: tuple[str, ...] = ("kill:file0@40%", "kill:pic@55%")


@dataclass
class ChaosResult:
    """One chaos run compared against its fault-free twin."""

    seed: int
    schedule_specs: tuple[str, ...]
    migration_failure_rate: float
    baseline_gbps: float
    chaos_gbps: float
    baseline_accesses: int
    chaos_accesses: int
    failed_accesses: int
    #: (simulated time, device) per applied outage
    outages: list[tuple[float, str]]
    recovery_times: list[float]
    stranded_at_end: int
    movements: list[MovementRecord] = field(default_factory=list)
    rescued_files: int = 0
    moves_failed: int = 0
    moves_retried: int = 0
    retries_exhausted: int = 0
    dead_letters: int = 0
    batches_dropped: int = 0
    batches_delayed: int = 0
    batches_corrupted: int = 0
    quarantined_devices: list[str] = field(default_factory=list)
    invariant_violations: list[str] = field(default_factory=list)

    @property
    def throughput_retention_percent(self) -> float:
        """Chaos-run throughput as a share of the fault-free baseline."""
        if self.baseline_gbps <= 0:
            raise ExperimentError("baseline measured non-positive throughput")
        return self.chaos_gbps / self.baseline_gbps * 100.0

    @property
    def recovery_time_s(self) -> float | None:
        """Time from the last outage wave until no file was stranded."""
        return self.recovery_times[-1] if self.recovery_times else None

    #: the chaos twin's movement history, compared like any loop's
    movement_fingerprint = FacadeRun.movement_fingerprint

    def to_text(self) -> str:
        rows = [
            ("baseline GB/s", f"{self.baseline_gbps:.2f}"),
            ("chaos GB/s", f"{self.chaos_gbps:.2f}"),
            ("throughput retention",
             f"{self.throughput_retention_percent:.1f}%"),
            ("outages injected",
             ", ".join(f"{d}@{t:.0f}s" for t, d in self.outages) or "none"),
            ("recovery time",
             f"{self.recovery_time_s:.1f}s" if self.recovery_time_s is not None
             else ("n/a" if not self.outages else "not recovered")),
            ("files still stranded", self.stranded_at_end),
            ("accesses failed (offline)", self.failed_accesses),
            ("moves failed mid-transfer", self.moves_failed),
            ("moves retried", self.moves_retried),
            ("retries exhausted", self.retries_exhausted),
            ("files rescued", self.rescued_files),
            ("telemetry dead-letters", self.dead_letters),
            ("batches dropped/delayed/corrupted",
             f"{self.batches_dropped}/{self.batches_delayed}"
             f"/{self.batches_corrupted}"),
            ("quarantined devices",
             ", ".join(self.quarantined_devices) or "none"),
            ("invariant violations", len(self.invariant_violations)),
        ]
        table = ascii_table(
            ["metric", "value"], rows,
            title=f"Chaos run (seed {self.seed}, "
                  f"{self.migration_failure_rate:.0%} migration failures)",
        )
        if self.invariant_violations:
            table += "\nVIOLATIONS:\n" + "\n".join(self.invariant_violations)
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
    """Run the Belle II workload fault-free, then under the chaos schedule.

    Both runs share every seed, so the throughput delta is attributable to
    the injected faults (plus the control plane's recovery work).
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
    geo = chaos.geo
    link = geo.telemetry.faults
    return ChaosResult(
        seed=seed,
        schedule_specs=specs,
        migration_failure_rate=migration_failure_rate,
        baseline_gbps=baseline.mean_gbps,
        chaos_gbps=chaos.mean_gbps,
        baseline_accesses=baseline.accesses,
        chaos_accesses=chaos.accesses,
        failed_accesses=chaos.runner.failed_accesses,
        outages=list(chaos.injector.outage_log),
        recovery_times=chaos.recovery_times,
        stranded_at_end=chaos.stranded_at_end,
        movements=chaos.movements,
        rescued_files=chaos.rescued_files,
        moves_failed=geo.control.moves_failed,
        moves_retried=geo.control.moves_retried,
        retries_exhausted=len(geo.control.exhausted),
        dead_letters=geo.daemon.dead_letters,
        batches_dropped=link.dropped,
        batches_delayed=link.delayed,
        batches_corrupted=link.corrupted,
        quarantined_devices=geo.health.quarantined_devices(chaos.end_time),
        invariant_violations=chaos.invariant_violations,
    )
