"""The learner's ReplayDB windows read as records, then adapted to columns.

Every stored access as one validated ``AccessRecord`` (its extra
telemetry decoded), the window picked from that list in Python, then the
records -> columns adapter: what the engine did before the columnar
readers, and what they must reproduce bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.replaydb.db import ReplayDB
from tests.oracles.record_features import record_columns


def all_records(db: ReplayDB) -> list:
    """Every access in ``db``, oldest first (row id = index + 1)."""
    total = db.max_rowid()
    return db.recent_accesses(total) if total else []


def file_records(db: ReplayDB, fid: int, limit: int) -> list:
    """The newest ``limit`` accesses of ``fid``, oldest first, picked out
    of every stored access."""
    return [record for record in all_records(db) if record.fid == fid][-limit:]


class RecordWindows:
    """A ReplayDB stand-in whose two columnar readers go through records."""

    def __init__(self, db: ReplayDB) -> None:
        self._db = db

    def __getattr__(self, name):
        return getattr(self._db, name)

    def access_columns(self, *, limit=None, since=None, ids=None, extra=()):
        records = all_records(self._db)
        if ids is not None:
            known = range(1, len(records) + 1)
            chosen = sorted({int(i) for i in ids if int(i) in known})
        else:
            chosen = list(range((since or 0) + 1, len(records) + 1))
            if limit is not None:
                chosen = chosen[-limit:]
        columns = record_columns([records[i - 1] for i in chosen], extra)
        columns["id"] = np.array(chosen, dtype=np.int64)
        return columns

    def recent_access_columns_per_file(self, limit, fids, *, extra=()):
        records = all_records(self._db)
        spans, window = [], []
        for fid in sorted(set(fids)):
            recent = [r for r in records if r.fid == fid][-limit:]
            if recent:
                spans.append((fid, len(window), len(window) + len(recent)))
                window.extend(recent)
        return spans, record_columns(window, extra) if window else {}
