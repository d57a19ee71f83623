"""Cross-seed robustness of the headline Fig. 5a result.

Runs the full Fig. 5a comparison across four environment seeds and reports
per-seed gains -- the error bars behind EXPERIMENTS.md's honesty note.
"""

import dataclasses

from repro.experiments import PAPER_COMMANDS
from repro.experiments.spec import BENCH_SCALE

# Robustness costs 4x a single Fig. 5a; trim the measured phase.
SCALE = dataclasses.replace(BENCH_SCALE, runs=60)


def test_fig5a_robustness(benchmark, save_result):
    # workers=4: one process per seedx policy chunk; bit-for-bit identical
    # to the serial sweep (tested in tests/experiments/test_parallel.py).
    result = benchmark.pedantic(
        PAPER_COMMANDS["robustness"].run,
        kwargs={"seeds": (0, 1, 2, 3), "scale": SCALE, "workers": 4},
        rounds=1,
        iterations=1,
    )
    save_result("robustness", result.to_text())
    # Geomancy wins on most environments and its median gain is positive.
    assert result.win_rate >= 0.5
    assert result.median_gain_percent > 0.0
