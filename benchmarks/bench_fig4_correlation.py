"""Fig. 4 benchmark: feature/throughput correlations on the EOS trace."""

from repro.experiments import PAPER_COMMANDS
from repro.experiments.spec import BENCH_SCALE

FIG4 = PAPER_COMMANDS["fig4"]


def test_fig4_correlation(benchmark, save_result):
    result = benchmark.pedantic(
        FIG4.run,
        kwargs={"scale": BENCH_SCALE, "seed": FIG4.seed},
        rounds=1,
        iterations=1,
    )
    save_result("fig4_correlation", result.to_text())

    report = result.report
    # Shape: byte counters positive, call timers strongly negative,
    # identifiers flat -- the paper's reading of Fig. 4.
    assert report.sign_of("rb") == 1
    assert report.sign_of("wb") == 1
    assert report.correlations["rt"] < -0.5
    assert report.correlations["wt"] < -0.2
    assert report.sign_of("fid") == 0
    assert report.sign_of("ots") >= 0
    # rt is the most negative bar, as drawn in the paper.
    assert report.correlations["rt"] == min(report.correlations.values())
