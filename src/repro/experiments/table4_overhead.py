"""Table IV: per-mount all-files-on-one-device study + Geomancy's usage.

Experiment 2 of the paper: "we measure the I/O performance of each storage
point if all files are placed and read solely on those points.  We compare
those performance metrics against a data layout proposed by Geomancy."  The
usage column reports how Geomancy spread its accesses across mounts
(file0 got ~65% in the paper, everything else shares the rest).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ExperimentError
from repro.experiments.harness import (
    PolicyRunResult,
    make_experiment_config,
    run_policy_experiment,
)
from repro.experiments.reporting import ascii_table, mean_std
from repro.experiments.spec import ExperimentScale, TEST_SCALE
from repro.policies.geomancy_policy import GeomancyDynamicPolicy
from repro.policies.static import SingleMountPolicy
from repro.simulation.bluesky import BLUESKY_DEVICE_NAMES, make_bluesky_cluster


@dataclass
class Table4Result:
    """Single-mount runs plus the Geomancy run."""

    mounts: dict[str, PolicyRunResult]
    geomancy: PolicyRunResult

    def mount_mean(self, name: str) -> float:
        try:
            return self.mounts[name].mean_throughput
        except KeyError:
            raise ExperimentError(
                f"no single-mount run for {name!r}; have {sorted(self.mounts)}"
            ) from None

    def fastest_mount(self) -> str:
        return max(self.mounts, key=lambda m: self.mounts[m].mean_throughput)

    def geomancy_usage(self) -> dict[str, float]:
        """Share of Geomancy's accesses served by each mount (percent)."""
        return dict(self.geomancy.usage_percent)

    def to_text(self) -> str:
        usage = self.geomancy_usage()
        rows = [
            (
                name,
                mean_std(
                    result.mean_throughput, result.std_throughput
                ),
                f"{usage.get(name, 0.0):.2f}",
            )
            for name, result in self.mounts.items()
        ]
        rows.append(
            (
                "Geomancy",
                mean_std(
                    self.geomancy.mean_throughput,
                    self.geomancy.std_throughput,
                ),
                "100",
            )
        )
        return ascii_table(
            ["Storage point", "Average throughput (GB/s)",
             "Average usage (%)"],
            rows,
            title="Table IV -- performance and utilization of storage points",
        )


def run_table4(
    *,
    scale: ExperimentScale = TEST_SCALE,
    seed: int = 0,
) -> Table4Result:
    """Regenerate Table IV: every mount alone, then Geomancy."""
    mount_results = {
        mount: run_policy_experiment(
            SingleMountPolicy(mount), scale=scale, seed=seed
        )
        for mount in BLUESKY_DEVICE_NAMES
    }
    cluster = make_bluesky_cluster(seed=seed)
    device_by_fsid = {
        cluster.device(name).fsid: name for name in cluster.device_names
    }
    geomancy = run_policy_experiment(
        GeomancyDynamicPolicy(
            device_by_fsid, make_experiment_config(scale, seed=seed)
        ),
        scale=scale,
        seed=seed,
    )
    return Table4Result(mounts=mount_results, geomancy=geomancy)
