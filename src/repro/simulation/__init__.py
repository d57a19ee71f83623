"""Simulated distributed storage substrate (substitute for PNNL's Bluesky).

The paper evaluates Geomancy on a live computation node with six mounts of
very different character (NFS home, RAID1 scratch, RAID5, Lustre, USB HDD)
shared with other users.  We cannot access that hardware, so this package
provides a discrete-time storage-cluster simulator that produces the same
*signal* Geomancy learns from: per-access throughput that depends on which
device holds the data, on time-varying external interference, and on how
crowded a device is with the workload's own files.

* :mod:`repro.simulation.clock` -- simulated time, split into the
  second/millisecond parts the telemetry schema uses.
* :mod:`repro.simulation.interference` -- external-load processes
  (constant, diurnal, bursty, spikes) occupying a fraction of a device's
  bandwidth.
* :mod:`repro.simulation.device` -- storage devices with asymmetric
  read/write bandwidth, capacity, latency, heavy-tailed noise and
  crowding-dependent contention.
* :mod:`repro.simulation.network` -- migration transfer links.
* :mod:`repro.simulation.cluster` -- the cluster: namespace, access
  execution, migrations and usage accounting.
* :mod:`repro.simulation.bluesky` -- the six-mount Bluesky testbed of
  Fig. 1, parameterized to echo Table IV's device ordering and variance.
"""

from repro.simulation.bluesky import (
    BLUESKY_DEVICE_NAMES,
    bluesky_device_specs,
    describe_bluesky,
    make_bluesky_cluster,
)
from repro.simulation.clock import SimulationClock, timestamp_parts
from repro.simulation.cluster import FileInfo, StorageCluster
from repro.simulation.device import DeviceSpec, StorageDevice
from repro.simulation.interference import (
    BurstyLoad,
    CompositeLoad,
    ConstantLoad,
    DiurnalLoad,
    LoadProcess,
)
from repro.simulation.network import TransferLink
from repro.simulation.topologies import (
    make_homogeneous_cluster,
    make_tiered_cluster,
)

__all__ = [
    "BLUESKY_DEVICE_NAMES",
    "bluesky_device_specs",
    "describe_bluesky",
    "make_bluesky_cluster",
    "make_homogeneous_cluster",
    "make_tiered_cluster",
    "SimulationClock",
    "timestamp_parts",
    "FileInfo",
    "StorageCluster",
    "DeviceSpec",
    "StorageDevice",
    "BurstyLoad",
    "CompositeLoad",
    "ConstantLoad",
    "DiurnalLoad",
    "LoadProcess",
    "TransferLink",
]
