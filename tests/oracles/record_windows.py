"""The learner's ReplayDB windows read as records, then adapted to columns.

``SELECT *``, one validated ``AccessRecord`` per row with its JSON blob
decoded, then the records -> columns adapter: what the engine did before
the columnar readers, and what they must reproduce bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.features.pipeline import record_columns
from repro.replaydb.db import ReplayDB
from tests.oracles.per_file_sql import recent_accesses, record_of_table_row


class RecordWindows:
    """A ReplayDB stand-in whose two columnar readers go through records."""

    def __init__(self, db: ReplayDB) -> None:
        self._db = db

    def __getattr__(self, name):
        return getattr(self._db, name)

    def access_columns(self, *, limit=None, since=None, ids=None, extra=()):
        rows = self._db._window_rows("*", limit=limit, since=since, ids=ids)
        columns = record_columns(
            [record_of_table_row(row) for row in rows], extra
        )
        columns["id"] = np.array([row[0] for row in rows], dtype=np.int64)
        return columns

    def recent_access_columns_per_file(self, limit, fids, *, extra=()):
        spans, records = [], []
        for fid in sorted(set(fids)):
            recent = recent_accesses(self._db, limit, fid)
            if recent:
                spans.append((fid, len(records), len(records) + len(recent)))
                records.extend(recent)
        return spans, record_columns(records, extra) if records else {}
