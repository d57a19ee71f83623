"""Observability overhead: the instrumented loop vs. the disabled twin.

Runs the same warm-up + measured control loop through ``run_facade``
twice per sample -- once with an exports stage and once without one
(``exports=None``).  The layers keep the same plain-int tallies and the
same recovery ``EventLog`` in both arms; the metrics are read off them
only when an export is written (:mod:`repro.observability.metrics`).
Neither arm traces its layers (a run opts into that with a trace path;
that an untraced run records nothing is a unit test of the recorder).
Asserts the paper-level guarantees:

* outputs are bit-for-bit identical with observability on or off;
* the Prometheus dump covers the whole stack (>= 6 subsystems);
* wall-clock overhead stays within the 2% budget (DESIGN.md).

The enabled arm also keeps the decision-provenance ledger (in memory, no
JSONL path: the daemon records each landed batch, every dispatch its
decision) and the SLO burn table every exports stage evaluates, so the
2% budget gates the full observability stack, not just metrics.

The overhead estimate uses :func:`_timing.paired_overhead`; if a first
cheap round lands over budget -- wall-clock noise on shared runners
dwarfs the true sub-1% cost -- one escalation round re-measures with
more pairs and bigger batches before judging.  Everything lands in
``benchmarks/out/BENCH_observability.json`` for the CI artifact.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from _timing import paired_overhead
from repro.experiments.facade import Exports, run_facade
from repro.experiments.harness import make_experiment_config
from repro.experiments.spec import TEST_SCALE
from repro.observability import metrics

OUT_DIR = Path(__file__).parent / "out"
SEED = 0
OVERHEAD_BUDGET_PERCENT = 2.0
REQUIRED_SUBSYSTEMS = {
    "engine", "replaydb", "features", "nn", "simulation", "faults",
}


def _enabled():
    return run_facade(
        make_experiment_config(TEST_SCALE, seed=SEED, provenance_enabled=True),
        scale=TEST_SCALE,
        seed=SEED,
        exports=Exports(),
    )


def _disabled():
    return run_facade(
        make_experiment_config(TEST_SCALE, seed=SEED),
        scale=TEST_SCALE,
        seed=SEED,
        exports=None,
    )


def _measure() -> dict:
    enabled = _enabled()
    disabled = _disabled()
    snapshot = metrics.snapshot(enabled.geo, enabled.runner, enabled.injector)
    subsystems = sorted(
        {name.split("_")[1] for group in snapshot.values() for name in group}
    )
    rounds = [paired_overhead(_disabled, _enabled, pairs=6, batch=2)]
    if rounds[-1]["overhead_percent"] > OVERHEAD_BUDGET_PERCENT:
        # One escalation round: longer samples + more pairs squeeze the
        # runner's wall-clock noise below the sub-1% true overhead.
        rounds.append(paired_overhead(_disabled, _enabled, pairs=8, batch=3))
    overhead = rounds[-1]
    return {
        "scale": TEST_SCALE.name,
        "seed": SEED,
        "budget_percent": OVERHEAD_BUDGET_PERCENT,
        "overhead_percent": overhead["overhead_percent"],
        "rounds": rounds,
        "outputs_identical": (
            enabled.movement_fingerprint() == disabled.movement_fingerprint()
            and enabled.final_layout == disabled.final_layout
            and enabled.mean_gbps == disabled.mean_gbps
            and enabled.accesses == disabled.accesses
        ),
        "subsystems": subsystems,
        "metrics_registered": sum(len(group) for group in snapshot.values()),
        "slo_objectives": len(enabled.slo or []),
        "disabled_slo": disabled.slo,
    }


@pytest.mark.benchmark(group="observability")
def test_observability_overhead(benchmark, save_result):
    summary = benchmark.pedantic(_measure, rounds=1, iterations=1)
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / "BENCH_observability.json"
    out_path.write_text(json.dumps(summary, indent=2) + "\n")
    save_result(
        "observability",
        "\n".join(
            [
                f"overhead: {summary['overhead_percent']:+.2f}% "
                f"(budget {summary['budget_percent']:.1f}%)",
                f"outputs identical: {summary['outputs_identical']}",
                f"subsystems: {', '.join(summary['subsystems'])}",
                f"metrics: {summary['metrics_registered']}",
            ]
        ),
    )
    assert summary["outputs_identical"]
    assert REQUIRED_SUBSYSTEMS <= set(summary["subsystems"])
    assert summary["slo_objectives"] == 2
    assert summary["disabled_slo"] is None
    assert summary["overhead_percent"] <= OVERHEAD_BUDGET_PERCENT
