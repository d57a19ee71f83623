"""Ablations of the paper's fixed design choices, graded over ten seeds.

Every arm runs the Fig. 5 learner cell (``run_policy_experiment``) at
``ABLATION_SCALE`` on seeds 0..9, one grid through ``run_cells``.  An arm
differs from the shipped Geomancy in one way: a config override (no
target smoothing), a scale replace (movement every 1 or 15 runs instead
of 5, section VI), or a ``unittest.mock.patch`` applied inside the cell
(the section V-H exploration rate at 0.0 or 0.5 instead of 0.10, or the
section V-G MAE-sign adjustment as the identity) -- a patch inside the
cell holds in spawned workers too.

Each sweep writes ``benchmarks/out/ablations_<sweep>.txt``: the per-seed
mean GB/s and files moved of every arm, then each arm's wins / ties /
losses against the shipped arm (higher / equal / lower mean at the
printed precision) and both medians.  Each test asserts the direction
its sweep measured, at most one seed looser than measured.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import statistics
from unittest import mock

import pytest

from repro.experiments.harness import (
    make_experiment_config,
    run_policy_experiment,
)
from repro.experiments.parallel import run_cells
from repro.experiments.reporting import ascii_table
from repro.experiments.spec import ExperimentScale

ABLATION_SCALE = ExperimentScale(
    name="ablation",
    warmup_accesses=2_000,
    runs=60,
    update_every=5,
    training_rows=3_000,
    epochs=50,
    trace_rows=4_000,
)
SEEDS = range(10)
WORKERS = min(4, os.cpu_count() or 1)
SHIPPED = "shipped"
_RATE = "repro.core.action_checker.EXPLORATION_RATE"
_ADJUST = "repro.core.adjustment.PredictionAdjuster.adjust"


def _unadjusted(self, predictions):
    """``PredictionAdjuster.adjust`` switched off: the raw predictions."""
    return predictions


#: arm -> (GeomancyConfig overrides, ExperimentScale overrides, the
#: ``mock.patch`` target and value a cell runs under, or None)
ARMS = {
    SHIPPED: ({}, {}, None),
    "smoothing_window=1": ({"smoothing_window": 1}, {}, None),
    "EXPLORATION_RATE=0.0": ({}, {}, (_RATE, 0.0)),
    "EXPLORATION_RATE=0.5": ({}, {}, (_RATE, 0.5)),
    "update_every=1": ({}, {"update_every": 1}, None),
    "update_every=15": ({}, {"update_every": 15}, None),
    "adjust=identity": ({}, {}, (_ADJUST, _unadjusted)),
}

#: sweep -> the arms it holds against the shipped one
SWEEPS = {
    "smoothing": ("smoothing_window=1",),
    "exploration": ("EXPLORATION_RATE=0.0", "EXPLORATION_RATE=0.5"),
    "cooldown": ("update_every=1", "update_every=15"),
    "adjustment": ("adjust=identity",),
}


def run_cell(cell: tuple[str, int]) -> tuple[float, int]:
    """(mean GB/s to the printed 0.001, files moved) of one arm on one
    seed."""
    arm, seed = cell
    config, scale_overrides, patch = ARMS[arm]
    scale = dataclasses.replace(ABLATION_SCALE, **scale_overrides)
    with mock.patch(*patch) if patch else contextlib.nullcontext():
        result = run_policy_experiment(
            make_experiment_config(scale, seed=seed, **config),
            scale=scale, seed=seed,
        )
    return round(result.mean_throughput, 3), result.total_files_moved


@pytest.fixture(scope="module")
def grid() -> dict[str, list[tuple[float, int]]]:
    """arm -> its (mean GB/s, files moved) per seed."""
    cells = [(arm, seed) for arm in ARMS for seed in SEEDS]
    results = iter(run_cells(run_cell, cells, workers=WORKERS))
    return {arm: [next(results) for _ in SEEDS] for arm in ARMS}


def versus(grid, arm: str) -> tuple[int, int, int]:
    """Seeds on which ``arm``'s mean is above / equal to / below the
    shipped arm's."""
    pairs = list(zip(grid[arm], grid[SHIPPED]))
    above = sum(mine > shipped for (mine, _), (shipped, _) in pairs)
    equal = sum(mine == shipped for (mine, _), (shipped, _) in pairs)
    return above, equal, len(pairs) - above - equal


def grade(grid, sweep: str, save_result) -> dict[str, tuple[int, int, int]]:
    """Write one sweep's tables; return each arm's wins/ties/losses."""
    arms = (SHIPPED, *SWEEPS[sweep])
    per_seed = ascii_table(
        ["seed", *(f"{arm} {col}" for arm in arms for col in ("GB/s", "moved"))],
        [
            (seed, *(f"{value:{spec}}"
                     for arm in arms
                     for value, spec in zip(grid[arm][seed], (".3f", "d"))))
            for seed in SEEDS
        ],
        title=f"Ablation -- {sweep}, seeds 0..{SEEDS[-1]} "
              f"at {ABLATION_SCALE.name} scale",
    )
    record = {arm: versus(grid, arm) for arm in SWEEPS[sweep]}
    shipped_median = statistics.median(mean for mean, _ in grid[SHIPPED])
    summary = ascii_table(
        ["arm", "wins", "ties", "losses", "median GB/s", "shipped median GB/s"],
        [
            (arm, *record[arm],
             f"{statistics.median(mean for mean, _ in grid[arm]):.3f}",
             f"{shipped_median:.3f}")
            for arm in SWEEPS[sweep]
        ],
        title="Against the shipped arm (a win is a higher mean on one seed)",
    )
    save_result(f"ablations_{sweep}", f"{per_seed}\n\n{summary}")
    return record


def _graded(benchmark, grid, sweep, save_result):
    return benchmark.pedantic(
        grade, args=(grid, sweep, save_result), rounds=1, iterations=1
    )


def test_ablation_smoothing(benchmark, grid, save_result):
    record = _graded(benchmark, grid, "smoothing", save_result)
    # The 50-run moving-average target beats the unsmoothed one on 9 of
    # 10 seeds (seed 7 loses).
    assert record["smoothing_window=1"][2] >= 8, record


def test_ablation_exploration_rate(benchmark, grid, save_result):
    record = _graded(benchmark, grid, "exploration", save_result)
    # Heavy exploration burns throughput on random moves: 0.5 is below
    # the paper's 10 % on 7 of 10 seeds, with 2 ties.  No exploration is
    # mostly a tie with 10 % (printed, not asserted).
    assert record["EXPLORATION_RATE=0.5"][2] >= 6, record


def test_ablation_cooldown(benchmark, grid, save_result):
    record = _graded(benchmark, grid, "cooldown", save_result)
    # "Moving files less frequently caused new placements to be less
    # relevant": every 5 runs beats every 15 on 9 of 10 seeds.  The
    # paper's other half -- moving too often costs more than it gains --
    # does not reproduce here: every run beats every 5 on 7 of 10.
    assert record["update_every=15"][2] >= 8, record
    assert record["update_every=1"][0] >= 6, record


def test_ablation_prediction_adjustment(benchmark, grid, save_result):
    record = _graded(benchmark, grid, "adjustment", save_result)
    # Without the section V-G adjustment the mean is higher on 5 seeds
    # and equal on the other 5: a non-positive factor inverts every score.
    above, _, below = record["adjust=identity"]
    assert above >= 4 and below <= 1, record
