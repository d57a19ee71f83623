"""Sharded scale-out acceptance benchmark.

Two gates from the scale-out work: (1) 8 shards beat the unsharded agent
on the decision-epoch time and on the combined decision+simulation
epoch for the *same* workload, and (2) a sweep point at >= 10^3 devices
x >= 10^5 files completes within the CI budget.  Writes
``BENCH_scale.json`` (including peak-RSS capture) to ``benchmarks/out/``
so the scale trajectory is inspectable per PR.  (That ``shards=1`` is
bit-for-bit one agent over the raw workload is a tier-1 test,
``tests/experiments/test_scale.py``, not a benchmark record.)

Gate (1) used to be >= 4x on both and read 17-56x: that measured the
unsharded epoch's one 512-device probe tensor (3-9 s and ~700 MB of
page-faulted activations), not sharding.  The engine now scores the
probe in cache-sized blocks, the unsharded epoch takes 0.3-0.8 s, and
what is left is what sharding itself buys on one core: seven runs on the
reference host gave 2.1-5.8x (decision) and 1.6-4.2x (overall), gated
below with margin.
"""

import pathlib

from repro.experiments.scale import run_scale_benchmark

OUT_DIR = pathlib.Path(__file__).parent / "out"


def test_scale_out(benchmark, save_result):
    result = benchmark.pedantic(
        run_scale_benchmark,
        kwargs={"seed": 0},
        rounds=1,
        iterations=1,
    )
    save_result("scale", result.to_text())
    result.write_json(OUT_DIR / "BENCH_scale.json")
    assert result.decision_epoch_speedup >= 1.5
    assert result.overall_speedup >= 1.2
    big = [
        point for point in result.sweep.results
        if point.point.devices >= 1_000 and point.point.files >= 100_000
    ]
    assert big, "the >=10^3 devices x >=10^5 files sweep point is missing"
    assert all(point.accesses > 0 for point in result.sweep.results)
