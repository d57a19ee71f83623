"""The per-file ReplayDB reads as SQL over the ``accesses`` table.

What ``ReplayDB`` ran until it kept per-file state where rows land: one
``WHERE fid = ? ORDER BY id DESC LIMIT k`` probe per file, and ``GROUP BY
fid`` for the counts and last-close times.  sqlite stays the store of
record, so these statements are the reference every per-file reader must
equal -- same rows, same order, same dtypes.
"""

from __future__ import annotations

import json

import numpy as np

from repro.replaydb.db import PROBE_FIELDS, ReplayDB
from repro.replaydb.records import AccessRecord


def record_of_table_row(row: tuple) -> AccessRecord:
    """One ``SELECT *`` row (table column order, id first) as a record."""
    return AccessRecord(
        fid=row[1], fsid=row[2], device=row[3], path=row[4],
        rb=row[5], wb=row[6], ots=row[7], otms=row[8],
        cts=row[9], ctms=row[10], extra=json.loads(row[12]),
    )


def _table(db: ReplayDB):
    """The connection, once every accepted row is in the table."""
    db._flush_accesses()
    return db._conn


def recent_access_columns_per_file(db, limit, fids, *, extra=()):
    query = (
        f"SELECT {ReplayDB._select(PROBE_FIELDS, extra)} FROM accesses "
        "WHERE fid = ? ORDER BY id DESC LIMIT ?"
    )
    execute = _table(db).execute
    rows = []
    for fid in sorted(set(fids)):
        rows.extend(reversed(execute(query, (fid, limit)).fetchall()))
    if not rows:
        return [], {}
    columns = ReplayDB._columns(rows, PROBE_FIELDS, extra)
    fid_col = columns["fid"]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(fid_col)) + 1))
    stops = np.concatenate((starts[1:], [len(fid_col)]))
    spans = [
        (int(fid_col[start]), int(start), int(stop))
        for start, stop in zip(starts, stops)
    ]
    return spans, columns


def recent_accesses(db, limit, fid) -> list[AccessRecord]:
    rows = _table(db).execute(
        "SELECT * FROM (SELECT * FROM accesses WHERE fid = ? "
        "ORDER BY id DESC LIMIT ?) ORDER BY id ASC",
        (fid, limit),
    ).fetchall()
    return [record_of_table_row(row) for row in rows]


def files(db) -> list[int]:
    rows = _table(db).execute("SELECT DISTINCT fid FROM accesses ORDER BY fid")
    return [row[0] for row in rows]


def access_count_per_file(db) -> dict[int, int]:
    rows = _table(db).execute("SELECT fid, COUNT(*) FROM accesses GROUP BY fid")
    return {int(fid): int(count) for fid, count in rows}


def last_access_time_per_file(db) -> dict[int, float]:
    rows = _table(db).execute(
        "SELECT fid, MAX(cts + ctms / 1000.0) FROM accesses GROUP BY fid"
    )
    return {int(fid): float(t) for fid, t in rows}


def assert_same_columns(got, want) -> None:
    """Two ``(spans, columns)`` reads are the same read: spans of ints,
    then column names, order, dtype and every bit."""
    assert got[0] == want[0]
    assert all(type(part) is int for span in got[0] for part in span)
    assert list(got[1]) == list(want[1])
    for name, column in want[1].items():
        assert got[1][name].dtype == column.dtype
        np.testing.assert_array_equal(got[1][name], column)
