"""The ReplayDB as SQL over an in-memory SQLite database.

What ``ReplayDB`` was before it kept its rows as columns: an ``accesses``
table whose rowids ascend in arrival order and a ``movements`` table.
Every read is a statement -- the per-file reads too, as one ``WHERE fid =
?`` probe per file and ``GROUP BY fid`` -- except the per-device totals,
which are SQLite's ``SUM`` over the rows above a rowid cursor, folded in
at each aggregate read.  ``release_before`` deletes the rows below the
horizon -- found with the column store's chunk size and tail depth --
after folding them into a ``released`` per-file table; the totals, cursor
and horizon ride a snapshot in a ``meta`` row.
``tests/replaydb/test_db_stateful.py`` holds the column store equal to it
after every step.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path

import numpy as np

from repro.errors import ReplayDBError
from repro.features.pipeline import extra_columns
from repro.replaydb import db as db_module
from repro.replaydb.db import PROBE_FIELDS
from repro.replaydb.records import AccessRecord, MovementRecord

#: one stored access row: the columnar fields lead, so a probe row is a
#: prefix of a stored one
_ROW_FIELDS = (*PROBE_FIELDS, "extra", "device", "path", "throughput")
_ROW_SQL = ", ".join(_ROW_FIELDS)

_SCHEMA = """
CREATE TABLE accesses (
    id      INTEGER PRIMARY KEY,
    fid     INTEGER NOT NULL,
    fsid    INTEGER NOT NULL,
    device  TEXT    NOT NULL,
    path    TEXT    NOT NULL,
    rb      INTEGER NOT NULL,
    wb      INTEGER NOT NULL,
    ots     INTEGER NOT NULL,
    otms    INTEGER NOT NULL,
    cts     INTEGER NOT NULL,
    ctms    INTEGER NOT NULL,
    throughput REAL NOT NULL,
    extra   TEXT    NOT NULL DEFAULT '{}'
);
CREATE TABLE movements (
    id         INTEGER PRIMARY KEY,
    timestamp  REAL    NOT NULL,
    fid        INTEGER NOT NULL,
    src_device TEXT    NOT NULL,
    dst_device TEXT    NOT NULL,
    bytes_moved INTEGER NOT NULL,
    duration   REAL    NOT NULL,
    succeeded  INTEGER NOT NULL DEFAULT 1
);
CREATE TABLE released (
    fid        INTEGER PRIMARY KEY,
    count      INTEGER NOT NULL,
    last_close REAL    NOT NULL
);
CREATE TABLE meta (state TEXT NOT NULL);
"""

#: per-file state over live and released rows alike
_PER_FILE = """
SELECT fid, SUM(count), MAX(last_close) FROM (
    SELECT fid, COUNT(*) AS count, MAX(cts + ctms / 1000.0) AS last_close
    FROM accesses GROUP BY fid
    UNION ALL SELECT fid, count, last_close FROM released
) GROUP BY fid ORDER BY fid
"""


def _select(names, extra) -> str:
    """SELECT list for ``names``, plus the JSON blob when ``extra``."""
    return ", ".join((*names, "extra") if extra else names)


def _columns(rows: list[tuple], names, extra) -> dict[str, np.ndarray]:
    """Rows selected by :func:`_select` as named float64 columns."""
    blobs: list[dict] = []
    if extra:
        blobs = [json.loads(row[-1]) for row in rows]
        rows = [row[:-1] for row in rows]
    data = np.array(rows, dtype=np.float64).reshape(len(rows), len(names))
    columns = {name: data[:, i] for i, name in enumerate(names)}
    columns.update(extra_columns(blobs, extra))
    return columns


def _record(row: tuple) -> AccessRecord:
    """The record one stored row (:data:`_ROW_FIELDS`) came from."""
    fields = dict(zip(_ROW_FIELDS, row))
    del fields["throughput"]  # the record derives it
    fields["extra"] = json.loads(fields["extra"])
    return AccessRecord(**fields)


class SqliteReplayDB:
    """The ReplayDB's public surface, one SQL statement per read."""

    def __init__(self) -> None:
        self._conn = sqlite3.connect(":memory:")
        self._conn.executescript(_SCHEMA)
        self._device_totals: dict[str, tuple[int, float]] = {}
        self._totals_cursor = 0
        #: the first row id not released
        self._horizon = 1

    def close(self) -> None:
        self._conn.close()

    # -- snapshots -------------------------------------------------------
    def snapshot_to(self, path) -> Path:
        state = [list(self._device_totals.items()), self._totals_cursor,
                 self._horizon]
        self._conn.execute("DELETE FROM meta")
        self._conn.execute("INSERT INTO meta VALUES (?)", (json.dumps(state),))
        self._conn.commit()
        target = sqlite3.connect(path)
        try:
            self._conn.backup(target)
        finally:
            target.close()
        return Path(path)

    def load_snapshot(self, path) -> "SqliteReplayDB":
        source = sqlite3.connect(path)
        try:
            source.backup(self._conn)
        finally:
            source.close()
        (state,) = self._conn.execute("SELECT state FROM meta").fetchone()
        totals, self._totals_cursor, self._horizon = json.loads(state)
        self._device_totals = {name: tuple(total) for name, total in totals}
        return self

    # -- writes ----------------------------------------------------------
    @staticmethod
    def _row(record: AccessRecord) -> tuple:
        return (
            record.fid, record.fsid, record.rb, record.wb, record.ots,
            record.otms, record.cts, record.ctms,
            json.dumps(record.extra) if record.extra else "{}",
            record.device, record.path, record.throughput,
        )

    def insert_access(self, record: AccessRecord) -> int:
        cursor = self._conn.execute(
            f"INSERT INTO accesses ({_ROW_SQL}) VALUES "
            f"({', '.join('?' for _ in _ROW_FIELDS)})",
            self._row(record),
        )
        self._conn.commit()
        return int(cursor.lastrowid)

    def insert_accesses(self, records) -> int:
        rows = [self._row(record) for record in records]
        self._conn.executemany(
            f"INSERT INTO accesses ({_ROW_SQL}) VALUES "
            f"({', '.join('?' for _ in _ROW_FIELDS)})",
            rows,
        )
        self._conn.commit()
        return len(rows)

    def insert_movements(self, records) -> int:
        rows = [
            (r.timestamp, r.fid, r.src_device, r.dst_device, r.bytes_moved,
             r.duration, int(r.succeeded))
            for r in records
        ]
        self._conn.executemany(
            "INSERT INTO movements (timestamp, fid, src_device, dst_device, "
            "bytes_moved, duration, succeeded) "
            "VALUES (?, ?, ?, ?, ?, ?, ?)",
            rows,
        )
        self._conn.commit()
        return len(rows)

    def release_before(self, rowid) -> int:
        self._device_aggregates()
        (oldest,) = self._conn.execute(
            "SELECT MIN(id) FROM (SELECT id, ROW_NUMBER() OVER "
            "(PARTITION BY fid ORDER BY id DESC) AS rn FROM accesses) "
            "WHERE rn <= ?",
            (db_module._TAIL_DEPTH,),
        ).fetchone()
        if oldest is None:
            oldest = self.max_rowid() + 1
        chunk = db_module._CHUNK_ROWS
        horizon = (min(rowid, oldest) - 1) // chunk * chunk + 1
        if horizon > self._horizon:
            self._conn.execute(
                "INSERT INTO released SELECT fid, COUNT(*), "
                "MAX(cts + ctms / 1000.0) FROM accesses WHERE id < ? "
                "GROUP BY fid ON CONFLICT (fid) DO UPDATE SET "
                "count = count + excluded.count, "
                "last_close = MAX(last_close, excluded.last_close)",
                (horizon,),
            )
            self._conn.execute("DELETE FROM accesses WHERE id < ?", (horizon,))
            self._conn.commit()
            self._horizon = horizon
        return self._horizon

    # -- reads -----------------------------------------------------------
    def _check_held(self, first_id) -> None:
        """The column store's error for a read that starts at
        ``first_id``, when that row was released."""
        if first_id < self._horizon:
            raise ReplayDBError(
                f"the read reaches rows released below id {self._horizon}"
            )

    @staticmethod
    def _check_depth(limit) -> None:
        if limit > db_module._TAIL_DEPTH:
            raise ReplayDBError(
                f"per-file reads hold the newest {db_module._TAIL_DEPTH} "
                f"rows, asked for {limit}"
            )

    def recent_accesses(self, limit):
        self._check_held(max(0, self.max_rowid() - limit) + 1)
        rows = self._conn.execute(
            f"SELECT {_ROW_SQL} FROM (SELECT * FROM accesses "
            f"ORDER BY id DESC LIMIT ?) ORDER BY id ASC",
            (limit,),
        ).fetchall()
        return [_record(row) for row in rows]

    def max_rowid(self) -> int:
        row = self._conn.execute("SELECT MAX(id) FROM accesses").fetchone()
        return int(row[0]) if row[0] is not None else 0

    def access_columns(self, *, limit=None, since=None, ids=None, extra=()):
        total = self.max_rowid()
        if ids is not None:
            params = sorted({int(i) for i in ids})
            held = [i for i in params if 1 <= i <= total]
            if held:
                self._check_held(held[0])
            source = (
                f"accesses WHERE id IN ({', '.join('?' for _ in params)})"
            )
        else:
            start = 0 if since is None else min(since, total)
            if limit is not None:
                start = max(start, total - limit)
            if start < total:
                self._check_held(start + 1)
            params = [] if since is None else [since]
            source = "accesses" if since is None else "accesses WHERE id > ?"
            if limit is not None:
                source = f"(SELECT * FROM {source} ORDER BY id DESC LIMIT ?)"
                params.append(limit)
        names = ("id", *PROBE_FIELDS)
        rows = self._conn.execute(
            f"SELECT {_select(names, extra)} FROM {source} ORDER BY id ASC",
            params,
        ).fetchall()
        columns = _columns(rows, names, extra)
        columns["id"] = columns["id"].astype(np.int64)
        return columns

    def recent_access_columns_per_file(self, limit, fids, *, extra=()):
        self._check_depth(limit)
        query = (
            f"SELECT {_select(PROBE_FIELDS, extra)} FROM accesses "
            "WHERE fid = ? ORDER BY id DESC LIMIT ?"
        )
        rows = []
        for fid in sorted(set(fids)):
            found = self._conn.execute(query, (fid, limit)).fetchall()
            rows.extend(reversed(found))
        if not rows:
            return [], {}
        columns = _columns(rows, PROBE_FIELDS, extra)
        fid_col = columns["fid"]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(fid_col)) + 1))
        stops = np.concatenate((starts[1:], [len(fid_col)]))
        spans = [
            (int(fid_col[start]), int(start), int(stop))
            for start, stop in zip(starts, stops)
        ]
        return spans, columns

    def files(self) -> list[int]:
        return [row[0] for row in self._conn.execute(_PER_FILE)]

    def access_count_per_file(self) -> dict[int, int]:
        rows = self._conn.execute(_PER_FILE)
        return {int(fid): int(count) for fid, count, _ in rows}

    def last_access_time_per_file(self) -> dict[int, float]:
        rows = self._conn.execute(_PER_FILE)
        return {int(fid): float(t) for fid, _, t in rows}

    def _device_aggregates(self) -> dict[str, tuple[int, float]]:
        rows = self._conn.execute(
            "SELECT device, COUNT(*), SUM(throughput), MAX(id) "
            "FROM accesses WHERE id > ? GROUP BY device",
            (self._totals_cursor,),
        ).fetchall()
        totals = self._device_totals
        for device, count, total, last_id in rows:
            have_count, have_total = totals.get(device, (0, 0.0))
            totals[device] = (have_count + count, have_total + total)
            self._totals_cursor = max(self._totals_cursor, last_id)
        return totals

    def devices(self) -> list[str]:
        return sorted(self._device_aggregates())

    def _totals(self, device):
        totals = self._device_aggregates()
        if device is not None:
            return totals.get(device, (0, 0.0))
        return (
            sum(count for count, _ in totals.values()),
            sum(total for _, total in totals.values()),
        )

    def access_count(self, *, device=None) -> int:
        return self._totals(device)[0]

    def average_throughput(self, *, device=None) -> float:
        count, total = self._totals(device)
        if not count:
            raise ReplayDBError(
                "no accesses recorded"
                + (f" for device {device!r}" if device else "")
            )
        return total / count

    def device_throughput_ranking(self) -> list[tuple[str, float]]:
        means = [
            (device, total / count)
            for device, (count, total) in sorted(
                self._device_aggregates().items()
            )
        ]
        means.sort(key=lambda pair: pair[1], reverse=True)
        return means

    # -- movement log ----------------------------------------------------
    def movements(self):
        rows = self._conn.execute(
            "SELECT timestamp, fid, src_device, dst_device, bytes_moved, "
            "duration, succeeded FROM movements ORDER BY id ASC"
        ).fetchall()
        return [
            MovementRecord(*row[:6], succeeded=bool(row[6])) for row in rows
        ]


def as_sqlite(db) -> SqliteReplayDB:
    """A :class:`SqliteReplayDB` holding the same accesses as ``db``."""
    oracle = SqliteReplayDB()
    total = db.max_rowid()
    if total:
        oracle.insert_accesses(db.recent_accesses(total))
    return oracle


def assert_same_columns(got, want) -> None:
    """Two ``(spans, columns)`` reads are the same read: spans of ints,
    then column names, order, dtype and every bit."""
    assert got[0] == want[0]
    assert all(type(part) is int for span in got[0] for part in span)
    assert list(got[1]) == list(want[1])
    for name, column in want[1].items():
        assert got[1][name].dtype == column.dtype
        np.testing.assert_array_equal(got[1][name], column)
