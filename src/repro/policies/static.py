"""Static layouts: single-mount placement and even spread.

``SingleMountPolicy`` drives Experiment 2 ("we measure the I/O performance
of each storage point if all files are placed and read solely on those
points"); ``EvenSpreadPolicy`` is the paper's "basic spread policy (evenly
across all available mounts)" baseline.
"""

from __future__ import annotations

from repro.errors import PolicyError
from repro.policies.base import PlacementPolicy, spread_in_groups
from repro.workloads.files import FileSpec


class SingleMountPolicy(PlacementPolicy):
    """Every file on one device (Experiment 2 / Table IV rows)."""

    dynamic = False

    def __init__(self, device: str) -> None:
        if not device:
            raise PolicyError("device name must be non-empty")
        self.device = device
        self.name = f"all-on-{device}"

    def initial_layout(
        self, files: list[FileSpec], devices: list[str]
    ) -> dict[int, str]:
        self._require(files, devices)
        if self.device not in devices:
            raise PolicyError(
                f"device {self.device!r} not in cluster (have {devices})"
            )
        return {f.fid: self.device for f in files}


class EvenSpreadPolicy(PlacementPolicy):
    """Files spread evenly over all mounts in fid order, then left alone."""

    name = "even spread"
    dynamic = False

    def initial_layout(
        self, files: list[FileSpec], devices: list[str]
    ) -> dict[int, str]:
        self._require(files, devices)
        return spread_in_groups(sorted(f.fid for f in files), list(devices))
