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
from repro.experiments.fig5_comparison import GEOMANCY, run_policy_grid
from repro.experiments.harness import PolicyRunResult
from repro.experiments.reporting import ascii_table, mean_std
from repro.experiments.spec import ExperimentScale
from repro.simulation.bluesky import BLUESKY_DEVICE_NAMES


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


def run_table4(*, scale: ExperimentScale, seed: int) -> Table4Result:
    """Regenerate Table IV: every mount alone, then Geomancy.

    One policy grid: a mount's name is its all-files-there policy, and
    the Geomancy cell is Fig. 5's ``(GEOMANCY, scale, seed)`` cell.
    """
    (grid,) = run_policy_grid(
        (*BLUESKY_DEVICE_NAMES, GEOMANCY), scale=scale, seeds=(seed,)
    )
    return Table4Result(
        mounts={mount: grid.results[mount] for mount in BLUESKY_DEVICE_NAMES},
        geomancy=grid.results[GEOMANCY],
    )
