"""Movement scheduling.

The paper applies layouts "every five runs of the workload since we observed
that adding a cool down period after file movement increased performance
benefits" (section VI): :class:`CooldownScheduler`.

Section X sketches a future extension: "a separate model which will be used
to predict gaps in accesses for files ... long enough for Geomancy to move
the file".  :class:`AccessGapScheduler` implements that idea directly from
telemetry: a file is movable when its observed inter-access gap comfortably
exceeds the estimated transfer time.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.replaydb.db import ReplayDB

#: recent accesses per file whose gaps :class:`AccessGapScheduler` averages
RECENT_ACCESSES = 20
#: how many transfer times a file's mean access gap must span to move it
SAFETY_FACTOR = 2.0


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


class AccessGapScheduler:
    """Per-file movability from observed access gaps (section X extension).

    A file may move when the mean gap between its recent accesses exceeds
    :data:`SAFETY_FACTOR` times the estimated transfer time -- i.e. the
    move fits inside the gap with slack.  Files under constant access never
    qualify ("We will not consider moving files that are always accessed").
    """

    def mean_gap(self, db: ReplayDB, fid: int) -> float | None:
        """Mean seconds between this file's recent accesses, if known."""
        records = db.recent_accesses(RECENT_ACCESSES, fid=fid)
        if len(records) < 2:
            return None
        gaps = [
            later.open_time - earlier.close_time
            for earlier, later in zip(records, records[1:])
        ]
        positive = [g for g in gaps if g > 0]
        if not positive:
            return 0.0
        return sum(positive) / len(positive)

    def can_move(
        self, db: ReplayDB, fid: int, estimated_transfer_s: float
    ) -> bool:
        """Whether the file's access gaps accommodate the transfer."""
        if estimated_transfer_s < 0:
            raise ConfigurationError(
                f"estimated_transfer_s must be >= 0, "
                f"got {estimated_transfer_s}"
            )
        gap = self.mean_gap(db, fid)
        if gap is None:
            # Never observed: moving is safe, nothing is waiting on it.
            return True
        return gap >= SAFETY_FACTOR * estimated_transfer_s
