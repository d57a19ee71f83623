"""Table III benchmark: model 1's error on each Bluesky mount.

Shape targets (paper Table III): model 1 converges on every mount with
errors in a 14-45% band -- "the model can correctly capture the normal
rise and fall in I/O throughput on individual devices".
"""

import dataclasses

from repro.experiments import PAPER_COMMANDS
from repro.experiments.spec import BENCH_SCALE
from repro.simulation.bluesky import BLUESKY_DEVICE_NAMES

TABLE3 = PAPER_COMMANDS["table3"]


def test_table3_per_mount(benchmark, save_result):
    result = benchmark.pedantic(
        TABLE3.run,
        kwargs={
            "scale": dataclasses.replace(
                BENCH_SCALE, epochs=BENCH_SCALE.epochs + 40
            ),
            "seed": TABLE3.seed,
        },
        rounds=1,
        iterations=1,
    )
    save_result("table3_permount", result.to_text())

    assert [row.mount for row in result.rows] == list(BLUESKY_DEVICE_NAMES)
    # No mount diverges, and every error stays inside a usable band.
    for row in result.rows:
        assert not row.diverged, row.mount
        assert row.mare < 60.0, (row.mount, row.mare)
    # Overall accuracy is in the paper's "reasonably high" regime.
    assert result.average_accuracy() > 55.0
