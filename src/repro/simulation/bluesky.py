"""The six-mount Bluesky testbed (paper Fig. 1, Table IV).

Device parameters are chosen so the *shape* of Table IV emerges: file0
(RAID 5) is by far the fastest but has the heaviest tail and a large
read/write imbalance; pic (Lustre) and people (NFS) receive the heaviest
external traffic; USBtmp (external HDD) is slowest and steadiest.  Absolute
numbers are calibrated to land near the paper's per-mount averages
(USBtmp 0.63, var 1.26, tmp 1.65, people 1.69, pic 2.05, file0 7.61 GB/s).
"""

from __future__ import annotations

from repro.simulation.cluster import StorageCluster
from repro.simulation.device import DeviceSpec, StorageDevice
from repro.simulation.interference import (
    BurstyLoad,
    CompositeLoad,
    ConstantLoad,
    DiurnalLoad,
    LoadProcess,
)
from repro.simulation.network import TransferLink

GB = 10**9

#: canonical device order used in figures and tables
BLUESKY_DEVICE_NAMES: tuple[str, ...] = (
    "USBtmp", "pic", "tmp", "file0", "var", "people",
)


def bluesky_device_specs() -> dict[str, DeviceSpec]:
    """Static specs for the six Bluesky mounts."""
    return {
        "USBtmp": DeviceSpec(
            name="USBtmp", fsid=0,
            read_gbps=0.75, write_gbps=0.48,
            capacity_bytes=2000 * GB, latency_s=0.008,
            noise_sigma=0.45, crowding_factor=2.0,
            interference_sensitivity=0.05,
            description="externally mounted USB hard disk drive",
        ),
        "pic": DeviceSpec(
            name="pic", fsid=1,
            read_gbps=1.7, write_gbps=1.35,
            capacity_bytes=10000 * GB, latency_s=0.004,
            noise_sigma=0.9, crowding_factor=2.5,
            interference_sensitivity=0.9,
            cache_hit_rate=0.04, cache_gbps=18.0,
            description="Lustre file system, heavy external traffic",
        ),
        "tmp": DeviceSpec(
            name="tmp", fsid=2,
            read_gbps=1.05, write_gbps=0.80,
            capacity_bytes=200 * GB, latency_s=0.003,
            noise_sigma=0.8, crowding_factor=3.0,
            interference_sensitivity=0.45,
            cache_hit_rate=0.04, cache_gbps=15.0,
            description="temporary RAID 1 mount",
        ),
        "file0": DeviceSpec(
            name="file0", fsid=3,
            read_gbps=3.3, write_gbps=1.1,
            capacity_bytes=500 * GB, latency_s=0.002,
            noise_sigma=0.85, crowding_factor=4.5,
            interference_sensitivity=0.8,
            cache_hit_rate=0.12, cache_gbps=40.0,
            description="RAID 5 mount, fastest but read/write imbalanced",
        ),
        "var": DeviceSpec(
            name="var", fsid=4,
            read_gbps=0.90, write_gbps=0.68,
            capacity_bytes=100 * GB, latency_s=0.003,
            noise_sigma=0.8, crowding_factor=3.0,
            interference_sensitivity=0.5,
            cache_hit_rate=0.03, cache_gbps=12.0,
            description="temporary RAID 1 mount",
        ),
        "people": DeviceSpec(
            name="people", fsid=5,
            read_gbps=2.05, write_gbps=1.6,
            capacity_bytes=1000 * GB, latency_s=0.006,
            noise_sigma=0.85, crowding_factor=2.5,
            interference_sensitivity=0.95,
            cache_hit_rate=0.05, cache_gbps=16.0,
            description="NFS home directory over shared 10 GbE",
        ),
    }


def bluesky_interference(seed: int = 0) -> dict[str, LoadProcess]:
    """External-load processes per mount.

    people and pic sit behind shared servers "used by multiple users who
    conduct work that stresses the system at all hours"; the scratch RAID
    mounts see light local traffic; USBtmp is private.
    """
    return {
        "USBtmp": ConstantLoad(0.0),
        "pic": CompositeLoad([
            DiurnalLoad(base=0.10, amplitude=0.35, period=1800.0, phase=0.7),
            BurstyLoad(p_on=0.30, on_level=0.35, off_level=0.02,
                       slot_seconds=45.0, seed=seed * 31 + 1),
        ]),
        "tmp": BurstyLoad(p_on=0.15, on_level=0.25, off_level=0.02,
                          slot_seconds=60.0, seed=seed * 31 + 2),
        "file0": BurstyLoad(p_on=0.18, on_level=0.85, off_level=0.0,
                            slot_seconds=300.0, seed=seed * 31 + 3),
        "var": BurstyLoad(p_on=0.20, on_level=0.30, off_level=0.03,
                          slot_seconds=60.0, seed=seed * 31 + 4),
        "people": CompositeLoad([
            DiurnalLoad(base=0.15, amplitude=0.40, period=2400.0, phase=0.0),
            BurstyLoad(p_on=0.35, on_level=0.40, off_level=0.05,
                       slot_seconds=30.0, seed=seed * 31 + 5),
        ]),
    }


def describe_bluesky() -> str:
    """A Fig. 1-style text description of the testbed."""
    specs = bluesky_device_specs()
    lines = [
        "Bluesky testbed (paper Fig. 1) -- one computation node, six mounts:",
    ]
    for name in BLUESKY_DEVICE_NAMES:
        spec = specs[name]
        lines.append(
            f"  {name:8s} fsid={spec.fsid}  "
            f"{spec.read_gbps:.2f}/{spec.write_gbps:.2f} GB/s r/w  "
            f"{spec.capacity_bytes // GB:>6d} GB  -- {spec.description}"
        )
    return "\n".join(lines)


def make_bluesky_cluster(seed: int = 0) -> StorageCluster:
    """Build the Fig. 1 testbed."""
    specs = bluesky_device_specs()
    interference = bluesky_interference(seed)
    devices = [
        StorageDevice(specs[name], interference[name], seed=seed)
        for name in BLUESKY_DEVICE_NAMES
    ]
    # 10 Gbit Ethernet interconnect (1.25 GB/s).
    return StorageCluster(devices, link=TransferLink(1.25, 0.001))
