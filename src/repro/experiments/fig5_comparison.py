"""Fig. 5: Geomancy against dynamic (5a) and static (5b) placement policies.

Experiment 1 of the paper: every policy steers the same seeded BELLE II
workload on its own copy of the same seeded Bluesky cluster, so the
environments are identical and only placement differs.  The paper's
headline: "Geomancy outperforms both static and dynamic data placement
algorithms by at least 11%".
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import ExperimentError
from repro.experiments.harness import (
    GEOMANCY,
    PolicyRunResult,
    bluesky_runner,
    make_experiment_config,
    run_policy_experiment,
    shuffled_warm_up,
)
from repro.experiments.parallel import run_cells
from repro.experiments.reporting import (
    BUCKET_ACCESSES,
    ascii_table,
    bucket_series,
    movement_bars,
    sparkline,
)
from repro.experiments.spec import ExperimentScale, TEST_SCALE
from repro.policies.geomancy_policy import GeomancyStaticPolicy
from repro.policies.lfu import LFUPolicy
from repro.policies.lru import LRUPolicy
from repro.policies.mru import MRUPolicy
from repro.policies.random_policy import RandomDynamicPolicy, RandomStaticPolicy
from repro.policies.static import EvenSpreadPolicy, SingleMountPolicy
from repro.replaydb.db import ReplayDB
from repro.simulation.bluesky import BLUESKY_DEVICE_NAMES, make_bluesky_cluster

#: the Fig. 5a (dynamic) and Fig. 5b (static) policy grids, by policy name
FIG5A_POLICIES: tuple[str, ...] = (
    "LRU", "MRU", "LFU", "random dynamic", GEOMANCY,
)
FIG5B_POLICIES: tuple[str, ...] = (
    "random static", "even spread", "Geomancy static", GEOMANCY,
)


@dataclass
class Fig5Result:
    """Per-policy measurements for one Fig. 5 panel."""

    results: dict[str, PolicyRunResult]
    title: str = "Fig. 5"

    def mean(self, name: str) -> float:
        try:
            return self.results[name].mean_throughput
        except KeyError:
            raise ExperimentError(
                f"no result for {name!r}; have {sorted(self.results)}"
            ) from None

    def gain_percent(self, over: str) -> float:
        """Throughput gain of Geomancy over policy ``over``."""
        base = self.mean(over)
        if base <= 0:
            raise ExperimentError(f"{over!r} measured non-positive throughput")
        return (self.mean(GEOMANCY) - base) / base * 100.0

    def best_baseline(self) -> str:
        """The strongest non-Geomancy policy."""
        candidates = {
            name: result.mean_throughput
            for name, result in self.results.items()
            if name != GEOMANCY
        }
        if not candidates:
            raise ExperimentError("no baseline policies in result")
        return max(candidates, key=candidates.get)

    def to_text(self) -> str:
        """The panel's table, Geomancy's movement bars and its gain over
        each baseline."""
        rows = []
        for name, result in sorted(
            self.results.items(),
            key=lambda kv: kv[1].mean_throughput,
            reverse=True,
        ):
            _, series = bucket_series(
                result.throughput_gbps, BUCKET_ACCESSES
            )
            rows.append(
                (
                    name,
                    f"{result.mean_throughput:.2f}",
                    f"{result.std_throughput:.2f}",
                    result.total_files_moved,
                    sparkline(series, width=40),
                )
            )
        table = ascii_table(
            ["policy", "mean GB/s", "std", "files moved",
             f"throughput per {BUCKET_ACCESSES} accesses"],
            rows,
            title=self.title,
        )
        # The paper draws Geomancy's movement bars under the curves.
        geomancy = self.results[GEOMANCY]
        if geomancy.movements:
            bars = movement_bars(
                geomancy.movements, max(geomancy.access_count, 1), width=40
            )
            table += "\nGeomancy movements:\n" + bars
        gains = "\n".join(
            f"Geomancy gain over {name}: {self.gain_percent(name):+.1f}%"
            for name in sorted(self.results)
            if name != GEOMANCY
        )
        return table + "\n" + gains


def collect_random_dynamic_telemetry(
    *, scale: ExperimentScale = TEST_SCALE, seed: int = 0
) -> ReplayDB:
    """Warm-up telemetry from a random-dynamic run (paper section VI:
    Geomancy static "uses approximately 10,000 performance metrics from the
    dynamic random experiment")."""
    runner = bluesky_runner(seed, db=ReplayDB())
    shuffled_warm_up(runner, scale, seed=seed)
    return runner.db


def _build_policy(name: str, scale: ExperimentScale, seed: int):
    """Rebuild one comparison policy from its cell spec.

    A Bluesky mount's name is Table IV's all-files-on-that-mount policy;
    the learner's cell is its config.
    The Geomancy static warm-up DB is regenerated from the seed: it
    derives only from ``(scale, seed)``, so every process builds the
    same telemetry.
    """
    if name in BLUESKY_DEVICE_NAMES:
        return SingleMountPolicy(name)
    if name == "LRU":
        return LRUPolicy()
    if name == "MRU":
        return MRUPolicy()
    if name == "LFU":
        return LFUPolicy()
    if name == "random dynamic":
        return RandomDynamicPolicy(seed=seed)
    if name == "random static":
        return RandomStaticPolicy(seed=seed)
    if name == "even spread":
        return EvenSpreadPolicy()
    if name == GEOMANCY:
        return make_experiment_config(scale, seed=seed)
    if name == "Geomancy static":
        cluster = make_bluesky_cluster(seed=seed)
        return GeomancyStaticPolicy(
            collect_random_dynamic_telemetry(scale=scale, seed=seed),
            {cluster.device(n).fsid: n for n in cluster.device_names},
            make_experiment_config(scale, seed=seed),
        )
    raise ExperimentError(f"unknown comparison policy {name!r}")


def _policy_cell(cell: tuple[str, ExperimentScale, int]) -> PolicyRunResult:
    """One (policy, scale, seed) measurement, rebuilt entirely from the cell."""
    name, scale, seed = cell
    return run_policy_experiment(
        _build_policy(name, scale, seed), scale=scale, seed=seed
    )


def run_policy_grid(
    policies: tuple[str, ...],
    *,
    scale: ExperimentScale,
    seeds: tuple[int, ...],
    workers: int = 1,
) -> list[Fig5Result]:
    """Measure every (policy, seed) cell; one :class:`Fig5Result` per seed.

    The grid is flattened to ``len(seeds) * len(policies)`` cells --
    finer-grained than one task per seed, so a handful of seeds still
    saturates the pool -- and regrouped by seed in submission order.
    Each cell runs in this process (``workers=1``) or in a process of
    its own, bit-for-bit the same result either way (the rules are
    :mod:`repro.experiments.parallel`'s).  Only a multi-seed grid
    (``fig5a --seeds``) gains from a pool: within one seed the Geomancy
    cell carries the learner and outlasts the other cells together.
    """
    cells = [(name, scale, seed) for seed in seeds for name in policies]
    results = run_cells(_policy_cell, cells, workers=workers)
    per_seed = len(policies)
    return [
        Fig5Result(
            results=dict(
                zip(policies, results[i * per_seed : (i + 1) * per_seed])
            )
        )
        for i in range(len(seeds))
    ]


@dataclass
class Fig5aResult:
    """Fig. 5a over one or more environment seeds: one panel per seed."""

    seeds: tuple[int, ...]
    panels: list[Fig5Result]

    def gains_percent(self) -> list[float]:
        """Geomancy's gain over each seed's best baseline."""
        return [p.gain_percent(p.best_baseline()) for p in self.panels]

    @property
    def win_rate(self) -> float:
        return sum(g > 0 for g in self.gains_percent()) / len(self.panels)

    @property
    def median_gain_percent(self) -> float:
        return float(np.median(self.gains_percent()))

    @property
    def gain_range(self) -> tuple[float, float]:
        gains = self.gains_percent()
        return (min(gains), max(gains))

    def to_text(self) -> str:
        """One seed: its panel.  Several: one row per seed, then the win
        rate and the median and range of the gains."""
        if len(self.panels) == 1:
            return self.panels[0].to_text()
        rows = []
        for seed, panel, gain in zip(
            self.seeds, self.panels, self.gains_percent()
        ):
            best = panel.best_baseline()
            rows.append((
                seed,
                f"{panel.mean(GEOMANCY):.2f}",
                f"{best} ({panel.mean(best):.2f})",
                f"{gain:+.1f}%",
                "win" if gain > 0 else "loss",
            ))
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


def run_fig5a(
    *, scale: ExperimentScale, seeds: Sequence[int], workers: int
) -> Fig5aResult:
    """Experiment 1, dynamic policies: LRU / MRU / LFU / random dynamic
    versus Geomancy dynamic, on each environment seed."""
    if not seeds:
        raise ExperimentError("need at least one seed")
    seeds = tuple(seeds)
    panels = run_policy_grid(
        FIG5A_POLICIES, scale=scale, seeds=seeds, workers=workers
    )
    for panel in panels:
        panel.title = "Fig. 5a -- dynamic policies"
    return Fig5aResult(seeds=seeds, panels=panels)


def run_fig5b(*, scale: ExperimentScale, seed: int) -> Fig5Result:
    """Experiment 1, static policies: random static / even spread /
    Geomancy static versus Geomancy dynamic."""
    (result,) = run_policy_grid(FIG5B_POLICIES, scale=scale, seeds=(seed,))
    result.title = "Fig. 5b -- static policies"
    return result
