"""Deterministic fault injection for the simulated cluster.

The paper motivates the Action Checker with "permissions or availability
changes in the system" (section V-H); this package supplies the changes.
A :class:`FaultSchedule` scripts device outages and degradations at
simulated times, a :class:`FaultInjector` applies them (and makes
migrations abort mid-transfer with a seeded probability), a
:class:`FaultStage` makes a transport lose/delay/reorder/corrupt messages,
and a :class:`HealthTracker` gives the control plane a circuit breaker
over repeatedly failing placement targets.  Everything draws from seeded
generators so chaos runs are exactly reproducible.
"""

from repro.faults.chaos_transport import FaultStage
from repro.faults.health import HealthTracker
from repro.faults.injector import FaultInjector
from repro.faults.invariants import (
    assert_cluster_invariants,
    cluster_invariant_violations,
)
from repro.faults.schedule import (
    FaultEvent,
    FaultSchedule,
    parse_fault_event,
)

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "FaultStage",
    "HealthTracker",
    "assert_cluster_invariants",
    "cluster_invariant_violations",
    "parse_fault_event",
]
