"""Fig. 5b benchmark: Geomancy dynamic vs the static baselines.

Shape target (paper Fig. 5b / section VII): Geomancy dynamic beats random
static (+24% in the paper) and the one-shot Geomancy-static layout (+30%):
"an ideal placement of data at a certain period of time will not be ideal
later during a workload's execution".
"""

from repro.experiments import PAPER_COMMANDS
from repro.experiments.spec import BENCH_SCALE

FIG5B = PAPER_COMMANDS["fig5b"]


def test_fig5b_static_policies(benchmark, save_result):
    result = benchmark.pedantic(
        FIG5B.run,
        kwargs={"scale": BENCH_SCALE, "seed": FIG5B.seed},
        rounds=1,
        iterations=1,
    )
    save_result("fig5b_static", result.to_text())

    geomancy = result.mean("Geomancy dynamic")
    # Beats every static baseline.
    for name in ("random static", "even spread", "Geomancy static"):
        assert geomancy > result.mean(name), f"Geomancy lost to {name}"
    # The headline gains are in the paper's double-digit regime.
    assert result.gain_percent("random static") >= 10.0
    assert result.gain_percent("Geomancy static") >= 10.0
