"""Fig. 5a benchmark: Geomancy dynamic vs the dynamic baselines.

Shape target (paper Fig. 5a / section VII): Geomancy dynamic delivers the
highest mean throughput of the dynamic policies, beating the best baseline
by a clear margin (the paper reports +11.7% over LFU, its closest
competitor).  The same comparison across four environment seeds gives the
per-seed gains -- the spread EXPERIMENTS.md quotes under Fig. 5a.
"""

import dataclasses

from repro.experiments import PAPER_COMMANDS
from repro.experiments.spec import BENCH_SCALE

FIG5A = PAPER_COMMANDS["fig5a"]

# Four seeds cost 4x a single Fig. 5a; trim the measured phase.
SEEDS_SCALE = dataclasses.replace(BENCH_SCALE, runs=60)


def test_fig5a_dynamic_policies(benchmark, save_result):
    result = benchmark.pedantic(
        FIG5A.run,
        # seed 2, the one ``repro fig5a`` defaults to
        kwargs={"scale": BENCH_SCALE, "seeds": (2,), "workers": 1},
        rounds=1,
        iterations=1,
    )
    save_result("fig5a_dynamic", result.to_text())
    (panel,) = result.panels

    # Geomancy wins overall ...
    best = panel.best_baseline()
    assert panel.mean("Geomancy dynamic") > panel.mean(best), (
        f"Geomancy lost to {best}"
    )
    # ... by a margin in the paper's regime (>= ~5% over the best baseline,
    # the paper's 11% being against LFU specifically).
    assert panel.gain_percent(best) >= 5.0
    # Geomancy moves files sparingly compared to the wholesale regroupers.
    geomancy_moves = panel.results["Geomancy dynamic"].total_files_moved
    lru_moves = panel.results["LRU"].total_files_moved
    assert geomancy_moves < lru_moves


def test_fig5a_across_seeds(benchmark, save_result):
    # workers=4: the (seed x policy) cells spread over four processes;
    # bit-for-bit identical to the serial sweep (tested in
    # tests/experiments/test_parallel.py).
    result = benchmark.pedantic(
        FIG5A.run,
        kwargs={"seeds": (0, 1, 2, 3), "scale": SEEDS_SCALE, "workers": 4},
        rounds=1,
        iterations=1,
    )
    save_result("fig5a_seeds", result.to_text())
    # Geomancy wins on most environments and its median gain is positive.
    assert result.win_rate >= 0.5
    assert result.median_gain_percent > 0.0
