#!/usr/bin/env python
"""Bring-your-own-storage-system: Geomancy on a custom cluster.

Shows the substrate API a downstream user would adopt: define devices with
their own bandwidth/contention characteristics, compose interference
processes, attach Geomancy, and watch it discover the fast tier.

Run:  python examples/custom_cluster.py
"""

from repro import (
    Belle2Workload,
    DeviceSpec,
    Geomancy,
    GeomancyConfig,
    StorageCluster,
    StorageDevice,
    WorkloadRunner,
    belle2_file_population,
)
from repro.simulation.interference import BurstyLoad, ConstantLoad, DiurnalLoad
from repro.simulation.network import TransferLink

GB = 10**9


def build_cluster() -> StorageCluster:
    """A three-tier cluster: NVMe scratch, SAS pool, cold archive."""
    nvme = StorageDevice(
        DeviceSpec(
            name="nvme", fsid=0, read_gbps=5.0, write_gbps=3.0,
            capacity_bytes=30 * GB,  # small: not everything fits
            latency_s=0.0005, noise_sigma=0.3, crowding_factor=2.0,
            interference_sensitivity=0.1,
        ),
        ConstantLoad(0.05),
        seed=7,
    )
    sas = StorageDevice(
        DeviceSpec(
            name="sas", fsid=1, read_gbps=1.2, write_gbps=0.9,
            capacity_bytes=500 * GB,
            latency_s=0.004, noise_sigma=0.6, crowding_factor=3.0,
            interference_sensitivity=0.7,
        ),
        DiurnalLoad(base=0.1, amplitude=0.4, period=1200.0),
        seed=7,
    )
    archive = StorageDevice(
        DeviceSpec(
            name="archive", fsid=2, read_gbps=0.3, write_gbps=0.25,
            capacity_bytes=5000 * GB,
            latency_s=0.02, noise_sigma=0.2, crowding_factor=1.0,
            interference_sensitivity=0.3,
        ),
        BurstyLoad(p_on=0.2, on_level=0.5, seed=11),
        seed=7,
    )
    return StorageCluster([nvme, sas, archive], link=TransferLink(1.25))


def main() -> None:
    cluster = build_cluster()
    files = belle2_file_population(12, seed=3)
    config = GeomancyConfig(epochs=60, training_rows=2500, cooldown_runs=5)
    geo = Geomancy(cluster, files, config)
    geo.place_initial()  # even spread over the three tiers

    runner = WorkloadRunner(cluster, Belle2Workload(files, seed=5), geo.db)
    for run in range(1, 41):
        result = runner.run_many(1)[0]
        outcome = geo.after_run(run, runner.clock.now)
        if outcome.moved_files:
            print(
                f"run {run:2d}: moved {outcome.moved_files} files, "
                f"run throughput {result.mean_throughput_gbps:.2f} GB/s"
            )

    print("\nfinal placement by tier:")
    for name in cluster.device_names:
        on_device = cluster.files_on(name)
        total = sum(info.size_bytes for info in on_device) / GB
        print(f"  {name:8s} {len(on_device):2d} files ({total:.1f} GB)")
    print(f"usage: { {k: round(v, 1) for k, v in cluster.usage_percent().items()} }")


if __name__ == "__main__":
    main()
