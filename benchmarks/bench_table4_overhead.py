"""Table IV benchmark: single-mount placements vs Geomancy.

Shape targets (paper Table IV): file0 has the highest single-mount mean
and the heaviest tail; USBtmp is slowest; Geomancy's throughput exceeds
every mount except raw file0 while spreading its accesses across devices.
"""

from repro.experiments import PAPER_COMMANDS
from repro.experiments.spec import BENCH_SCALE

TABLE4 = PAPER_COMMANDS["table4"]


def test_table4_overhead(benchmark, save_result):
    result = benchmark.pedantic(
        TABLE4.run,
        kwargs={"scale": BENCH_SCALE, "seed": TABLE4.seed},
        rounds=1,
        iterations=1,
    )
    save_result("table4_overhead", result.to_text())

    # file0 fastest single mount, USBtmp slowest.
    assert result.fastest_mount() == "file0"
    means = {name: r.mean_throughput for name, r in result.mounts.items()}
    assert min(means, key=means.get) == "USBtmp"
    # file0's std exceeds its mean (the paper's 7.61 +/- 13.73 pattern).
    file0 = result.mounts["file0"]
    assert file0.std_throughput > file0.mean_throughput
    # Geomancy beats every single-mount placement except raw file0.
    geomancy = result.geomancy.mean_throughput
    for name, mean in means.items():
        if name != "file0":
            assert geomancy > mean, name
    # Geomancy's accesses spread across devices (it has usage everywhere
    # in the paper's table).
    usage = result.geomancy_usage()
    assert sum(1 for share in usage.values() if share > 1.0) >= 3
