"""Additional cluster topologies beyond the Bluesky testbed.

The related-work systems the paper contrasts against assume particular
storage shapes: Univistor/Stacker want "a tiered storage cluster with
performance strictly going up as storage densities decrease" (a burst
buffer over disk over tape), while Geomancy claims to work with "varying
levels of performance, but no one storage layer dedicated to caching."
These factories build both shapes so that claim is testable.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.simulation.cluster import StorageCluster
from repro.simulation.device import DeviceSpec, StorageDevice
from repro.simulation.interference import BurstyLoad, ConstantLoad
from repro.simulation.network import TransferLink

GB = 10**9
#: the tiered cluster's burst-buffer size
BUFFER_CAPACITY_GB = 50
#: every scaled-cluster device's size
SCALED_CAPACITY_GB = 100
#: every homogeneous node's read speed (writes run at 70 % of it) and size
HOMOGENEOUS_READ_GBPS = 1.5
HOMOGENEOUS_CAPACITY_GB = 500


def make_tiered_cluster(*, seed: int = 0) -> StorageCluster:
    """A strict performance hierarchy: burst buffer > disk pool > archive.

    Performance strictly increases as capacity decreases -- the storage
    shape Univistor and Stacker are built for.
    """
    devices = [
        StorageDevice(
            DeviceSpec(
                name="burst", fsid=0, read_gbps=8.0, write_gbps=6.0,
                capacity_bytes=BUFFER_CAPACITY_GB * GB, latency_s=0.0003,
                noise_sigma=0.2, crowding_factor=1.5,
                interference_sensitivity=0.05,
                description="NVRAM burst buffer",
            ),
            ConstantLoad(0.02),
            seed=seed,
        ),
        StorageDevice(
            DeviceSpec(
                name="disk", fsid=1, read_gbps=1.5, write_gbps=1.0,
                capacity_bytes=2000 * GB, latency_s=0.004,
                noise_sigma=0.5, crowding_factor=2.5,
                interference_sensitivity=0.5,
                description="shared disk pool",
            ),
            BurstyLoad(p_on=0.25, on_level=0.4, off_level=0.05,
                       slot_seconds=60.0, seed=seed * 17 + 1),
            seed=seed,
        ),
        StorageDevice(
            DeviceSpec(
                name="archive", fsid=2, read_gbps=0.25, write_gbps=0.2,
                capacity_bytes=50_000 * GB, latency_s=0.05,
                noise_sigma=0.2, crowding_factor=1.0,
                interference_sensitivity=0.2,
                description="cold archive",
            ),
            ConstantLoad(0.05),
            seed=seed,
        ),
    ]
    return StorageCluster(devices, link=TransferLink(1.25, 0.001))


#: hardware templates the scaled factory cycles through, index order:
#: (read_gbps, write_gbps, latency_s, noise_sigma, crowding_factor,
#:  interference_sensitivity, p_on, on_level, slot_seconds, description)
_SCALED_TIERS: tuple[tuple, ...] = (
    (6.0, 4.5, 0.0004, 0.2, 1.5, 0.10, 0.15, 0.5, 45.0, "nvme node"),
    (3.0, 2.2, 0.0010, 0.3, 2.0, 0.40, 0.25, 0.5, 60.0, "ssd node"),
    (1.5, 1.0, 0.0040, 0.5, 2.5, 0.60, 0.30, 0.6, 90.0, "disk node"),
    (0.6, 0.45, 0.0100, 0.4, 2.0, 0.50, 0.35, 0.7, 120.0, "dense disk node"),
)


def _scaled_device(idx: int, *, seed: int) -> StorageDevice:
    """Device ``idx`` of the scaled cluster -- pure in ``(seed, idx)``.

    Nothing here depends on how many devices are built: per-device speed
    jitter comes from a Weyl-style integer hash of the index, and the
    interference schedule is seeded per index, exactly as the
    homogeneous factory seeds its nodes.
    """
    (read, write, latency, noise, crowding, sensitivity,
     p_on, on_level, slot, desc) = _SCALED_TIERS[idx % len(_SCALED_TIERS)]
    jitter = 0.85 + 0.3 * (((idx * 2654435761 + seed * 40503) % 1000) / 1000.0)
    return StorageDevice(
        DeviceSpec(
            name=f"dev{idx:05d}", fsid=idx,
            read_gbps=read * jitter, write_gbps=write * jitter,
            capacity_bytes=SCALED_CAPACITY_GB * GB, latency_s=latency,
            noise_sigma=noise, crowding_factor=crowding,
            interference_sensitivity=sensitivity,
            description=desc,
        ),
        BurstyLoad(p_on=p_on, on_level=on_level, off_level=0.05,
                   slot_seconds=slot, seed=seed * 23 + idx),
        seed=seed,
    )


def make_scaled_cluster(n_devices: int, *, seed: int = 0) -> StorageCluster:
    """A tier-cycling cluster of any size (``wide_probe`` builds 32).

    Device ``i`` is a pure function of ``(seed, i)``, so a larger build
    extends a smaller one without changing any device it already had.
    """
    if n_devices < 1:
        raise ConfigurationError(f"n_devices must be >= 1, got {n_devices}")
    devices = [_scaled_device(idx, seed=seed) for idx in range(n_devices)]
    return StorageCluster(devices, link=TransferLink(1.25, 0.001))


def make_homogeneous_cluster(
    n_devices: int = 4, *, seed: int = 0
) -> StorageCluster:
    """N identical devices differing only in their external interference.

    The degenerate case for heuristics that rank devices by hardware speed:
    all differentiation comes from time-varying contention, which is
    exactly the signal Geomancy's model feeds on.
    """
    if n_devices < 2:
        raise ConfigurationError(f"need >= 2 devices, got {n_devices}")
    devices = [
        StorageDevice(
            DeviceSpec(
                name=f"node{i}", fsid=i,
                read_gbps=HOMOGENEOUS_READ_GBPS,
                write_gbps=HOMOGENEOUS_READ_GBPS * 0.7,
                capacity_bytes=HOMOGENEOUS_CAPACITY_GB * GB, latency_s=0.003,
                noise_sigma=0.4, crowding_factor=2.5,
                interference_sensitivity=0.8,
                description="homogeneous storage node",
            ),
            # Each node gets its own bursty schedule: at any moment some
            # nodes are hot and others quiet.
            BurstyLoad(p_on=0.3, on_level=0.6, off_level=0.05,
                       slot_seconds=90.0, seed=seed * 23 + i),
            seed=seed,
        )
        for i in range(n_devices)
    ]
    return StorageCluster(devices, link=TransferLink(1.25, 0.001))
