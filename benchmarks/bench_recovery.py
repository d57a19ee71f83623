"""Crash-restart-resume matrix: recovery time and determinism.

For every (checkpoint cadence x kill point) cell the benchmark runs the
facade loop (``run_facade``) with a checkpoint stage to completion, runs
an identical twin that is killed mid-flight, resumes the twin from its
checkpoint directory, and checks the resumed result is bit-for-bit
identical to the uninterrupted one.  Per-cell wall-clock recovery time (restore + replay to the end)
lands in ``benchmarks/out/BENCH_recovery.json`` for the CI artifact.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from pathlib import Path

import pytest

from _timing import summarize
from repro.errors import SimulatedCrash
from repro.experiments.facade import (
    KILL_POINTS,
    Checkpoints,
    resume_facade,
    run_facade,
)
from repro.experiments.harness import make_experiment_config
from repro.experiments.spec import TEST_SCALE

OUT_DIR = Path(__file__).parent / "out"
SEED = 0
KILL_AT_RUN = 10
CADENCES = (1, 5)


def _recover(checkpoints: Checkpoints):
    return run_facade(
        make_experiment_config(TEST_SCALE, seed=SEED),
        scale=TEST_SCALE,
        seed=SEED,
        checkpoints=checkpoints,
    )


def _run_matrix() -> dict:
    summary: dict = {"scale": TEST_SCALE.name, "seed": SEED, "cells": []}
    workdir = Path(tempfile.mkdtemp(prefix="bench-recovery-"))
    try:
        for cadence in CADENCES:
            t0 = time.perf_counter()
            base_dir = workdir / f"base-{cadence}"
            baseline = _recover(Checkpoints(base_dir, every=cadence))
            uninterrupted_s = time.perf_counter() - t0
            for kill_point in KILL_POINTS:
                cell_dir = workdir / f"cell-{cadence}-{kill_point}"
                try:
                    _recover(Checkpoints(
                        cell_dir,
                        every=cadence,
                        kill_at_run=KILL_AT_RUN,
                        kill_point=kill_point,
                    ))
                    raise AssertionError("injected kill did not fire")
                except SimulatedCrash:
                    pass
                t1 = time.perf_counter()
                resumed = resume_facade(cell_dir)
                recovery_s = time.perf_counter() - t1
                identical = (
                    resumed.final_layout == baseline.final_layout
                    and resumed.movement_fingerprint()
                    == baseline.movement_fingerprint()
                    and resumed.mean_gbps == baseline.mean_gbps
                    and resumed.accesses == baseline.accesses
                )
                summary["cells"].append(
                    {
                        "checkpoint_every": cadence,
                        "kill_point": kill_point,
                        "kill_at_run": KILL_AT_RUN,
                        "resumed_from_step": resumed.resumed_from_step,
                        "runs_replayed": (
                            KILL_AT_RUN - resumed.resumed_from_step
                        ),
                        "uninterrupted_s": round(uninterrupted_s, 3),
                        "recovery_s": round(recovery_s, 3),
                        "identical": identical,
                    }
                )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    summary["recovery_time"] = summarize(
        [cell["recovery_s"] for cell in summary["cells"]]
    )
    return summary


@pytest.mark.benchmark(group="recovery")
def test_crash_restart_resume_matrix(benchmark, save_result):
    summary = benchmark.pedantic(_run_matrix, rounds=1, iterations=1)
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / "BENCH_recovery.json"
    out_path.write_text(json.dumps(summary, indent=2) + "\n")
    save_result(
        "recovery",
        "\n".join(
            f"checkpoint-every={cell['checkpoint_every']} "
            f"kill={cell['kill_point']}: resumed from step "
            f"{cell['resumed_from_step']}, recovery {cell['recovery_s']}s, "
            f"identical={cell['identical']}"
            for cell in summary["cells"]
        ),
    )
    assert all(cell["identical"] for cell in summary["cells"])
    # Resuming replays at most checkpoint_every runs, so recovery is
    # bounded well below re-running the whole experiment.
    for cell in summary["cells"]:
        assert cell["runs_replayed"] <= cell["checkpoint_every"]
