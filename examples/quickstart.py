#!/usr/bin/env python
"""Quickstart: Geomancy tuning the BELLE II workload on Bluesky.

Builds the simulated six-mount Bluesky testbed, places the 24-file BELLE II
population, and runs 50 workload runs with Geomancy retraining and moving
files every 5 runs.  Prints per-cycle training quality and the throughput
trend.

Run:  python examples/quickstart.py
"""

from repro import (
    Belle2Workload,
    Geomancy,
    GeomancyConfig,
    WorkloadRunner,
    belle2_file_population,
    make_bluesky_cluster,
)


def main() -> None:
    cluster = make_bluesky_cluster(seed=2)
    files = belle2_file_population(seed=2)
    config = GeomancyConfig(
        epochs=60,           # paper: 200; trimmed for a quick demo
        training_rows=3000,  # paper: 12,000
        cooldown_runs=5,     # paper: move every 5 workload runs
    )
    geo = Geomancy(cluster, files, config)
    layout = geo.place_initial()
    print(f"placed {len(layout)} files across {len(cluster.device_names)} mounts")

    workload = Belle2Workload(files, seed=1)
    runner = WorkloadRunner(cluster, workload, geo.db)

    # Warm up with periodic random shuffles so the telemetry covers many
    # (file, device) combinations -- on a static layout the model cannot
    # tell a file's identity apart from its location.
    from repro.policies import RandomDynamicPolicy

    shuffler = RandomDynamicPolicy(seed=0)
    warm_runs = 0
    while geo.db.access_count() < 2000:
        runner.run_many(1)
        warm_runs += 1
        if warm_runs % 5 == 0:
            shuffled = shuffler.update_layout(
                geo.db, files, cluster.device_names
            )
            cluster.apply_layout(shuffled, runner.clock.now)
    print(f"warmed up with {geo.db.access_count()} accesses "
          f"over {warm_runs} runs")

    throughputs = []
    for run in range(1, 51):
        result = runner.run_many(1)[0]
        throughputs.append(result.mean_throughput_gbps)
        outcome = geo.after_run(run, runner.clock.now)
        if outcome.trained:
            report = outcome.training
            status = (
                f"error {report.test_mare:5.1f}%"
                if not report.diverged else "diverged"
            )
            print(
                f"run {run:3d}: retrained on {report.samples} accesses "
                f"({status}), moved {outcome.moved_files} files; "
                f"recent throughput "
                f"{sum(throughputs[-5:]) / len(throughputs[-5:]):.2f} GB/s"
            )

    first = sum(throughputs[:10]) / 10
    last = sum(throughputs[-10:]) / 10
    print(
        f"\nmean run throughput: first 10 runs {first:.2f} GB/s, "
        f"last 10 runs {last:.2f} GB/s"
    )
    print(f"total files moved: {geo.total_moves}")
    print(f"final layout usage: {cluster.usage_percent()}")


if __name__ == "__main__":
    main()
