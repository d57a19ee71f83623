"""Migration transfer links.

Geomancy "limits how often and how much data can be transferred at once
without creating a bottleneck in the network" (section V-A); the cluster
routes every file migration over a :class:`TransferLink` so migration cost
is part of every measured experiment.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.simulation.device import GBPS


class TransferLink:
    """A point-to-point link with fixed bandwidth and latency."""

    def __init__(self, bandwidth_gbps: float = 1.25, latency_s: float = 0.001) -> None:
        # 1.25 GB/s is 10 Gbit Ethernet, the paper's NFS interconnect.
        if bandwidth_gbps <= 0:
            raise ConfigurationError(
                f"bandwidth must be positive, got {bandwidth_gbps}"
            )
        if latency_s < 0:
            raise ConfigurationError(
                f"latency must be non-negative, got {latency_s}"
            )
        self.bandwidth_gbps = float(bandwidth_gbps)
        self.latency_s = float(latency_s)

    @property
    def bandwidth_bytes(self) -> float:
        return self.bandwidth_gbps * GBPS
