#!/usr/bin/env python
"""Does Geomancy need a burst buffer?  (Related-work claim, section IX.)

Univistor and Stacker require "a tiered storage cluster with performance
strictly going up as storage densities decrease"; Geomancy claims to help
on systems with "varying levels of performance, but no one storage layer
dedicated to caching".  This example measures Geomancy's gain over an even
spread on both shapes: a strict burst-buffer hierarchy and a homogeneous
cluster where the only signal is time-varying interference.

Expected outcome: a large win on the tiered cluster (Geomancy discovers
the burst buffer), and little or no win on the fully homogeneous one --
when devices are hardware-identical there is no stable location signal to
learn, and concentrating files only buys crowding.  Geomancy's own sweet
spot (like Bluesky's) is *heterogeneous-but-untiered* storage.

Run:  python examples/tiered_vs_flat.py           (~90 s)
"""

from repro.experiments.harness import (
    GEOMANCY,
    make_experiment_config,
    run_policy_experiment,
)
from repro.experiments.spec import ExperimentScale
from repro.policies import EvenSpreadPolicy
from repro.simulation.topologies import (
    make_homogeneous_cluster,
    make_tiered_cluster,
)
from repro.workloads.files import belle2_file_population

SCALE = ExperimentScale(
    name="example", warmup_accesses=1500, runs=50, update_every=5,
    training_rows=2500, epochs=50, trace_rows=2000,
)


def compare_on(cluster_factory, label: str) -> None:
    files = belle2_file_population(12, seed=3)
    results = {}
    # Geomancy's cell is its config: the harness runs the learner itself.
    for policy in (EvenSpreadPolicy(), make_experiment_config(SCALE, seed=0)):
        result = run_policy_experiment(
            policy, scale=SCALE, seed=0, cluster=cluster_factory(), files=files
        )
        results[result.policy_name] = result
    spread = results["even spread"].mean_throughput
    geomancy = results[GEOMANCY].mean_throughput
    gain = (geomancy - spread) / spread * 100
    print(f"{label}:")
    print(f"  even spread      {spread:.2f} GB/s")
    print(f"  Geomancy dynamic {geomancy:.2f} GB/s  ({gain:+.1f}%)")
    usage = results[GEOMANCY].usage_percent
    top = max(usage, key=usage.get)
    print(f"  Geomancy's favourite device: {top} ({usage[top]:.0f}% of accesses)\n")


def main() -> None:
    compare_on(lambda: make_tiered_cluster(seed=0), "tiered (burst buffer)")
    compare_on(
        lambda: make_homogeneous_cluster(4, seed=0),
        "homogeneous (interference-only signal)",
    )


if __name__ == "__main__":
    main()
