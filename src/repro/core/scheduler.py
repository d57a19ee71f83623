"""Movement scheduling.

The paper applies layouts "every five runs of the workload since we observed
that adding a cool down period after file movement increased performance
benefits" (section VI): :class:`CooldownScheduler`.
"""

from __future__ import annotations

from repro.errors import ConfigurationError


class CooldownScheduler:
    """Allow a movement every ``cooldown_runs`` workload runs."""

    def __init__(self, cooldown_runs: int = 5) -> None:
        if cooldown_runs < 1:
            raise ConfigurationError(
                f"cooldown_runs must be >= 1, got {cooldown_runs}"
            )
        self.cooldown_runs = int(cooldown_runs)

    def should_move(self, run_index: int) -> bool:
        """True on runs 5, 10, 15, ... (for the default cooldown)."""
        if run_index < 0:
            raise ConfigurationError(f"run_index must be >= 0, got {run_index}")
        return run_index > 0 and run_index % self.cooldown_runs == 0
