"""Placement policies: the baselines of Experiment 1 plus Geomancy static.

Every policy implements the :class:`~repro.policies.base.PlacementPolicy`
interface: an initial layout for the workload's files, and an optional
between-runs relayout driven by ReplayDB telemetry.  The heuristic baselines
(LRU, MRU, LFU) follow section VI: rank devices by observed throughput,
sort files by the policy's criterion, and assign equal groups of files to
devices in rank order, remainders to the slowest device.
"""

from repro.policies.base import (
    PlacementPolicy,
    rank_devices,
    spread_in_groups,
)
from repro.policies.geomancy_policy import GeomancyStaticPolicy
from repro.policies.lfu import LFUPolicy
from repro.policies.lru import LRUPolicy
from repro.policies.mru import MRUPolicy
from repro.policies.random_policy import RandomDynamicPolicy, RandomStaticPolicy
from repro.policies.static import EvenSpreadPolicy, SingleMountPolicy

__all__ = [
    "PlacementPolicy",
    "rank_devices",
    "spread_in_groups",
    "GeomancyStaticPolicy",
    "LFUPolicy",
    "LRUPolicy",
    "MRUPolicy",
    "RandomDynamicPolicy",
    "RandomStaticPolicy",
    "EvenSpreadPolicy",
    "SingleMountPolicy",
]
