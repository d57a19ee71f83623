"""The fault injector: applies a schedule to a live cluster.

The injector is clock-driven like everything else in the simulation:
callers pump :meth:`FaultInjector.advance` with the current simulated time
and every scheduled action whose time has come is applied to the cluster.
Independently, an injector installed as the cluster's migration
interceptor makes migrations abort mid-transfer with a configured
probability -- drawn from its own seeded generator, so a fixed seed yields
an identical fault sequence run after run.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.schedule import (
    DEGRADE,
    OFFLINE,
    ONLINE,
    RESTORE,
    FaultSchedule,
)
from repro.simulation.cluster import StorageCluster


class FaultInjector:
    """Applies scheduled faults and probabilistic migration failures."""

    def __init__(
        self,
        cluster: StorageCluster,
        schedule: FaultSchedule | None = None,
        *,
        migration_failure_rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= migration_failure_rate <= 1.0:
            raise ConfigurationError(
                f"migration_failure_rate must be in [0, 1], "
                f"got {migration_failure_rate}"
            )
        self.cluster = cluster
        self.schedule = schedule if schedule is not None else FaultSchedule()
        known = set(cluster.device_names)
        unknown = self.schedule.devices() - known
        if unknown:
            raise ConfigurationError(
                f"fault schedule names unknown devices {sorted(unknown)}; "
                f"cluster has {sorted(known)}"
            )
        self.migration_failure_rate = float(migration_failure_rate)
        self._rng = np.random.default_rng(seed)
        self._actions = self.schedule.primitives()
        self._cursor = 0
        self.outages_applied = 0
        self.recoveries_applied = 0
        self.degradations_applied = 0
        self.migration_attempts = 0
        self.migration_faults_injected = 0
        #: (time, device) for every offline action, for recovery reporting
        self.outage_log: list[tuple[float, str]] = []

    # -- wiring ----------------------------------------------------------
    def install(self) -> "FaultInjector":
        """Hook migration-failure injection into the cluster."""
        self.cluster.migration_interceptor = self.intercept_migration
        return self

    def uninstall(self) -> None:
        # Bound-method equality (not identity): each attribute access
        # creates a fresh bound method object.
        if self.cluster.migration_interceptor == self.intercept_migration:
            self.cluster.migration_interceptor = None

    # -- scheduled faults ------------------------------------------------
    @property
    def pending_actions(self) -> int:
        return len(self._actions) - self._cursor

    def advance(self, t: float) -> int:
        """Apply every scheduled action due at or before ``t``.

        Returns the number of actions applied.  Idempotent per action:
        each fires exactly once no matter how often ``advance`` is called.
        """
        applied = 0
        while self._cursor < len(self._actions):
            at, action, device, factor = self._actions[self._cursor]
            if at > t:
                break
            self._cursor += 1
            applied += 1
            if action == OFFLINE:
                self.cluster.set_device_online(device, False)
                self.outages_applied += 1
                self.outage_log.append((at, device))
            elif action == ONLINE:
                self.cluster.set_device_online(device, True)
                self.recoveries_applied += 1
            elif action == DEGRADE:
                self.cluster.device(device).degradation = factor
                self.degradations_applied += 1
            elif action == RESTORE:
                self.cluster.device(device).degradation = 1.0
                self.recoveries_applied += 1
        return applied

    # -- persistence -----------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serializable progress through the schedule.

        The schedule itself is not serialized -- the owner reconstructs
        the injector from the same (resolved) schedule and seed, then
        restores the cursor so already-applied actions never re-fire.
        """
        return {
            "rng": self._rng.bit_generator.state,
            "cursor": self._cursor,
            "outages_applied": self.outages_applied,
            "recoveries_applied": self.recoveries_applied,
            "degradations_applied": self.degradations_applied,
            "migration_attempts": self.migration_attempts,
            "migration_faults_injected": self.migration_faults_injected,
            "outage_log": [[t, device] for t, device in self.outage_log],
        }

    def load_state_dict(self, state: dict) -> None:
        self._rng.bit_generator.state = state["rng"]
        self._cursor = int(state["cursor"])
        if self._cursor > len(self._actions):
            raise ConfigurationError(
                f"injector cursor {self._cursor} exceeds the "
                f"{len(self._actions)} scheduled actions"
            )
        self.outages_applied = int(state["outages_applied"])
        self.recoveries_applied = int(state["recoveries_applied"])
        self.degradations_applied = int(state["degradations_applied"])
        self.migration_attempts = int(state["migration_attempts"])
        self.migration_faults_injected = int(state["migration_faults_injected"])
        self.outage_log = [
            (float(t), str(device)) for t, device in state["outage_log"]
        ]

    # -- migration failures ----------------------------------------------
    def intercept_migration(
        self, fid: int, src: str, dst: str, t: float, size_bytes: int
    ) -> float | None:
        """Decide whether this migration fails mid-transfer.

        Returns the fraction of bytes transferred before the abort, or
        ``None`` to let the move complete.  One RNG draw happens per
        attempt regardless of outcome, so the fault sequence depends only
        on the seed and the order of migration attempts.
        """
        self.migration_attempts += 1
        roll = self._rng.random()
        if self.migration_failure_rate and roll < self.migration_failure_rate:
            self.migration_faults_injected += 1
            # Fail somewhere in the middle of the transfer: the wasted
            # traffic is real, but the file never reaches the target.
            return float(0.05 + 0.90 * self._rng.random())
        return None
