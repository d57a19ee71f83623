"""Ablations over DESIGN.md's called-out design choices.

Each ablation sweeps one Geomancy knob on the Fig. 5 setup at a reduced
scale, writing a comparison table: exploration rate (paper fixes 10%),
movement cooldown (paper fixes 5 runs), target smoothing (moving average
vs none), and the section V-G prediction adjustment (on vs off).
"""

from repro.experiments.harness import (
    make_experiment_config,
    run_policy_experiment,
)
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


def run_geomancy_with(**config_overrides):
    config = make_experiment_config(ABLATION_SCALE, seed=0, **config_overrides)
    return run_policy_experiment(config, scale=ABLATION_SCALE, seed=0)


def sweep(name, values, key, save_result):
    rows = []
    results = {}
    for value in values:
        result = run_geomancy_with(**{key: value})
        results[value] = result
        rows.append(
            (value, f"{result.mean_throughput:.2f}",
             result.total_files_moved)
        )
    save_result(
        f"ablation_{name}",
        ascii_table(
            [key, "mean GB/s", "files moved"], rows,
            title=f"Ablation -- {name}",
        ),
    )
    return results


def test_ablation_exploration_rate(benchmark, save_result):
    results = benchmark.pedantic(
        sweep,
        args=("exploration", (0.0, 0.10, 0.5), "exploration_rate", save_result),
        rounds=1,
        iterations=1,
    )
    # Heavy exploration burns throughput on random moves relative to the
    # paper's 10% setting.
    assert results[0.5].mean_throughput < max(
        results[0.0].mean_throughput, results[0.10].mean_throughput
    ) * 1.10


def cooldown_sweep(save_result):
    """Vary how often Geomancy is consulted (the paper's 5-run cooldown)."""
    import dataclasses

    results = {}
    rows = []
    for update_every in (1, 5, 15):
        scale = dataclasses.replace(ABLATION_SCALE, update_every=update_every)
        result = run_policy_experiment(
            make_experiment_config(scale, seed=0), scale=scale, seed=0
        )
        results[update_every] = result
        rows.append(
            (update_every, f"{result.mean_throughput:.2f}",
             result.total_files_moved)
        )
    save_result(
        "ablation_cooldown",
        ascii_table(
            ["cooldown (runs)", "mean GB/s", "files moved"], rows,
            title="Ablation -- movement cooldown",
        ),
    )
    return results


def test_ablation_cooldown(benchmark, save_result):
    results = benchmark.pedantic(
        cooldown_sweep, args=(save_result,), rounds=1, iterations=1
    )
    # The paper's tradeoff: "if Geomancy moves files too often ... the
    # overhead diminishes the performance increase"; "moving files less
    # frequently caused new placements to be less relevant".  The 5-run
    # cooldown should therefore be the best of the three settings.
    best = max(results, key=lambda k: results[k].mean_throughput)
    assert best == 5, {k: results[k].mean_throughput for k in results}


def test_ablation_smoothing(benchmark, save_result):
    results = benchmark.pedantic(
        sweep,
        args=("smoothing", (1, 50), "smoothing_window", save_result),
        rounds=1,
        iterations=1,
    )
    # Both configurations complete; the smoothed target is the default the
    # comparison benches use.  Record both means for the report.
    assert all(r.mean_throughput > 0 for r in results.values())


def test_ablation_prediction_adjustment(benchmark, save_result):
    results = benchmark.pedantic(
        sweep,
        args=("adjustment", (True, False), "adjust_predictions", save_result),
        rounds=1,
        iterations=1,
    )
    assert all(r.mean_throughput > 0 for r in results.values())
