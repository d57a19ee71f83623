"""Fig. 5a benchmark: Geomancy dynamic vs the dynamic baselines.

Shape target (paper Fig. 5a / section VII): Geomancy dynamic delivers the
highest mean throughput of the dynamic policies, beating the best baseline
by a clear margin (the paper reports +11.7% over LFU, its closest
competitor).
"""

from repro.experiments import PAPER_COMMANDS
from repro.experiments.spec import BENCH_SCALE

FIG5A = PAPER_COMMANDS["fig5a"]


def test_fig5a_dynamic_policies(benchmark, save_result):
    result = benchmark.pedantic(
        FIG5A.run,
        kwargs={"scale": BENCH_SCALE, "seed": FIG5A.seed},
        rounds=1,
        iterations=1,
    )
    save_result("fig5a_dynamic", result.to_text())

    # Geomancy wins overall ...
    best = result.best_baseline()
    assert result.mean("Geomancy dynamic") > result.mean(best), (
        f"Geomancy lost to {best}"
    )
    # ... by a margin in the paper's regime (>= ~5% over the best baseline,
    # the paper's 11% being against LFU specifically).
    assert result.gain_percent(best) >= 5.0
    # Geomancy moves files sparingly compared to the wholesale regroupers.
    geomancy_moves = result.results["Geomancy dynamic"].total_files_moved
    lru_moves = result.results["LRU"].total_files_moved
    assert geomancy_moves < lru_moves
