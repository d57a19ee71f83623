"""The ReplayDB: Geomancy's telemetry store (paper section V-A).

"the Interface Daemon stores the raw performance data into the ReplayDB, a
SQLite database located outside the target system. ... The ReplayDB stores
new performance data at each action taken by Geomancy, and each action is
indexed by a timestamp representing the time when Geomancy changed the data
layout to show an evolution of the data layout and corresponding
performance."  Here the store is in-memory columns (:mod:`repro.replaydb.db`)
that outlive the process as snapshots.
"""

from repro.replaydb.db import ReplayDB
from repro.replaydb.records import AccessRecord, MovementRecord

__all__ = ["ReplayDB", "AccessRecord", "MovementRecord"]
