"""SQLite-backed ReplayDB.

The DRL engine trains on "the most recent X accesses for each of the storage
devices" (paper section V-E), so the query surface is built around
most-recent-N retrieval per device and per file, plus the movement log used
to cluster file migrations for the Fig. 5 bar charts.
"""

from __future__ import annotations

import json
import os
import sqlite3
from collections.abc import Iterable, Sequence
from pathlib import Path

import numpy as np

from repro.errors import ReplayDBError
from repro.features.pipeline import NUMERIC_FIELDS, extra_columns
from repro.observability import get_observability
from repro.replaydb.records import AccessRecord, MovementRecord

#: the documented default: a private in-memory database (fast, unshared,
#: gone when the process exits -- simulation runs that need durability
#: pass a real path or use :meth:`ReplayDB.snapshot_to`)
MEMORY = ":memory:"

#: numeric access fields served by the columnar queries, in SELECT order
PROBE_FIELDS: tuple[str, ...] = NUMERIC_FIELDS

#: SQL shared by the eager single-row and deferred bulk insert paths
_INSERT_ACCESS_SQL = (
    "INSERT INTO accesses (fid, fsid, device, path, rb, wb, ots, "
    "otms, cts, ctms, throughput, extra) "
    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
)

#: the increment of the per-device aggregate: the rows above the cursor,
#: grouped.  ``NOT INDEXED`` pins the scan to the primary-key range; left
#: to itself SQLite serves the ``GROUP BY`` from ``idx_accesses_device``
#: and walks that whole index however few rows are new.
_DEVICE_TOTALS_SINCE_SQL = (
    "SELECT device, COUNT(*), SUM(throughput), MAX(id) "
    "FROM accesses NOT INDEXED WHERE id > ? GROUP BY device"
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS accesses (
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
CREATE INDEX IF NOT EXISTS idx_accesses_device ON accesses(device, id);
CREATE INDEX IF NOT EXISTS idx_accesses_fid    ON accesses(fid, id);
CREATE TABLE IF NOT EXISTS movements (
    id         INTEGER PRIMARY KEY,
    timestamp  REAL    NOT NULL,
    fid        INTEGER NOT NULL,
    src_device TEXT    NOT NULL,
    dst_device TEXT    NOT NULL,
    bytes_moved INTEGER NOT NULL,
    duration   REAL    NOT NULL,
    succeeded  INTEGER NOT NULL DEFAULT 1,
    trace_id   TEXT
);
CREATE INDEX IF NOT EXISTS idx_movements_ts ON movements(timestamp);
"""


class ReplayDB:
    """Access/movement telemetry store.

    Defaults to :data:`MEMORY` -- a private in-memory database, the common
    case for simulation runs, which costs nothing to create and vanishes
    with the process.  Pass a filesystem path (``str`` or
    :class:`~pathlib.Path`) for persistence across processes; on-disk
    databases run in WAL mode so readers never block the writer and a
    crash can roll back at most the last uncommitted transaction.  Usable
    as a context manager; :meth:`close` releases the file handle (and is
    idempotent), after which any further operation raises
    :class:`~repro.errors.ReplayDBError`.

    ``max_pending_accesses`` bounds the write-behind buffer: a bulk
    insert that would grow it past the threshold lands the buffered rows
    in sqlite immediately, so long fused runs with no intervening reads
    cannot grow the buffer without limit.
    """

    #: default write-behind buffer bound (rows)
    DEFAULT_MAX_PENDING_ACCESSES = 50_000

    def __init__(
        self,
        path: str | os.PathLike = MEMORY,
        *,
        max_pending_accesses: int | None = None,
    ) -> None:
        if isinstance(path, os.PathLike):
            path = os.fspath(path)
        if not isinstance(path, str) or not path:
            raise ReplayDBError(
                f"path must be a non-empty string or Path (or the "
                f"{MEMORY!r} default), got {path!r}"
            )
        if max_pending_accesses is None:
            max_pending_accesses = self.DEFAULT_MAX_PENDING_ACCESSES
        if max_pending_accesses < 1:
            raise ReplayDBError(
                "max_pending_accesses must be >= 1, "
                f"got {max_pending_accesses}"
            )
        self.max_pending_accesses = int(max_pending_accesses)
        self.path = path
        self._closed = False
        #: write-behind buffer for bulk access inserts: rows wait here
        #: until a reader (or snapshot/close) needs the table, so the
        #: sqlite work happens once per read boundary instead of once per
        #: workload run.  Observationally identical to eager writes --
        #: every query path flushes first.
        self._pending_accesses: list[tuple] = []
        #: per-device ``(row count, throughput sum)`` over the rows up to
        #: ``_totals_cursor``.  ``accesses`` is append-only and rowids
        #: ascend in arrival order, so the rows above the cursor are
        #: exactly the rows not yet folded in; an existing file starts at
        #: 0 and pays one full pass on its first aggregate read.
        self._device_totals: dict[str, tuple[int, float]] = {}
        self._totals_cursor = 0
        self._raw_conn = sqlite3.connect(path)
        if not self.in_memory:
            # WAL survives crashes with at most the last transaction lost
            # and lets checkpoint readers run alongside the writer;
            # synchronous=NORMAL is WAL's intended durability pairing.
            self._raw_conn.execute("PRAGMA journal_mode=WAL")
            self._raw_conn.execute("PRAGMA synchronous=NORMAL")
        self._raw_conn.executescript(_SCHEMA)
        self._raw_conn.commit()
        metrics = get_observability().metrics
        self._m_rows_written = metrics.counter(
            "repro_replaydb_rows_written_total",
            "access and movement rows inserted",
        )
        self._m_queries = metrics.counter(
            "repro_replaydb_queries_total", "read queries served"
        )

    # -- lifecycle -----------------------------------------------------------
    @property
    def in_memory(self) -> bool:
        """Whether this database lives only in process memory."""
        return self.path == MEMORY or self.path.startswith("file::memory:")

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def _conn(self) -> sqlite3.Connection:
        if self._closed:
            raise ReplayDBError("ReplayDB is closed")
        return self._raw_conn

    def _flush_accesses(self) -> None:
        """Land buffered access rows in sqlite (in arrival order)."""
        if self._pending_accesses:
            rows = self._pending_accesses
            self._pending_accesses = []
            self._conn.executemany(_INSERT_ACCESS_SQL, rows)
            self._conn.commit()

    def close(self) -> None:
        if not self._closed:
            self._flush_accesses()
            self._raw_conn.close()
            self._closed = True

    def __enter__(self) -> "ReplayDB":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- snapshots -----------------------------------------------------------
    def snapshot_to(self, path: str | os.PathLike) -> Path:
        """Export a consistent point-in-time copy of the whole database.

        Uses sqlite's online backup API, so it works for in-memory
        databases and does not block other readers; the copy is staged
        beside ``path`` and renamed into place, so a crash mid-export
        never leaves a torn snapshot at the destination.
        """
        self._flush_accesses()
        dest = Path(path)
        tmp = dest.with_name(f".{dest.name}.tmp")
        if tmp.exists():
            tmp.unlink()
        try:
            target = sqlite3.connect(tmp)
            try:
                self._conn.backup(target)
            finally:
                target.close()
            os.replace(tmp, dest)
        except sqlite3.Error as exc:
            raise ReplayDBError(f"snapshot to {dest} failed: {exc}") from exc
        finally:
            if tmp.exists():
                tmp.unlink()
        return dest

    def load_snapshot(self, path: str | os.PathLike) -> "ReplayDB":
        """Replace this database's entire contents with a snapshot's."""
        self._flush_accesses()
        source_path = os.fspath(path)
        if not os.path.exists(source_path):
            raise ReplayDBError(f"no snapshot at {source_path!r}")
        try:
            source = sqlite3.connect(source_path)
            try:
                source.backup(self._conn)
            finally:
                source.close()
        except sqlite3.Error as exc:
            raise ReplayDBError(
                f"restoring snapshot {source_path!r} failed: {exc}"
            ) from exc
        # The table was replaced wholesale: the next aggregate read
        # starts over from the snapshot's first row.
        self._device_totals = {}
        self._totals_cursor = 0
        return self

    @classmethod
    def from_snapshot(
        cls, snapshot: str | os.PathLike, path: str | os.PathLike = MEMORY
    ) -> "ReplayDB":
        """A new database (in-memory by default) filled from a snapshot."""
        return cls(path).load_snapshot(snapshot)

    # -- writes ----------------------------------------------------------
    def insert_access(self, record: AccessRecord) -> int:
        """Store one access immediately; returns its row id."""
        self._flush_accesses()  # keep arrival order with buffered rows
        cur = self._conn.execute(
            _INSERT_ACCESS_SQL,
            (
                record.fid, record.fsid, record.device, record.path,
                record.rb, record.wb, record.ots, record.otms,
                record.cts, record.ctms, record.throughput,
                json.dumps(record.extra),
            ),
        )
        self._conn.commit()
        self._m_rows_written.inc()
        return int(cur.lastrowid)

    def insert_accesses(self, records: Iterable[AccessRecord]) -> int:
        """Bulk insert; returns the number of rows accepted.

        Rows are staged in the write-behind buffer and land in sqlite at
        the next read boundary (any query, snapshot, or close), so
        back-to-back workload runs pay one ``executemany`` per boundary
        instead of one per run.  When the buffer reaches
        ``max_pending_accesses`` rows it is flushed immediately, bounding
        the memory held between read boundaries.
        """
        if self._closed:
            raise ReplayDBError("ReplayDB is closed")
        dumps = json.dumps
        rows = [
            (
                r.fid, r.fsid, r.device, r.path, r.rb, r.wb, r.ots, r.otms,
                r.cts, r.ctms, r.throughput,
                dumps(r.extra) if r.extra else "{}",
            )
            for r in records
        ]
        self._pending_accesses.extend(rows)
        if len(self._pending_accesses) >= self.max_pending_accesses:
            self._flush_accesses()
        self._m_rows_written.inc(len(rows))
        return len(rows)

    def insert_movements(self, records: Iterable[MovementRecord]) -> int:
        """Bulk insert movements; returns the number of rows written."""
        rows = [
            (
                r.timestamp, r.fid, r.src_device, r.dst_device,
                r.bytes_moved, r.duration, int(r.succeeded), r.trace_id,
            )
            for r in records
        ]
        self._conn.executemany(
            "INSERT INTO movements (timestamp, fid, src_device, dst_device, "
            "bytes_moved, duration, succeeded, trace_id) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            rows,
        )
        self._conn.commit()
        self._m_rows_written.inc(len(rows))
        return len(rows)

    # -- reads -----------------------------------------------------------
    @staticmethod
    def _to_record(row: tuple) -> AccessRecord:
        return AccessRecord(
            fid=row[1], fsid=row[2], device=row[3], path=row[4],
            rb=row[5], wb=row[6], ots=row[7], otms=row[8],
            cts=row[9], ctms=row[10], extra=json.loads(row[12]),
        )

    def recent_accesses(
        self,
        limit: int,
        *,
        device: str | None = None,
        fid: int | None = None,
    ) -> list[AccessRecord]:
        """The most recent ``limit`` accesses, in chronological order.

        Optionally restricted to one device or one file.
        """
        if limit <= 0:
            raise ReplayDBError(f"limit must be positive, got {limit}")
        self._flush_accesses()
        self._m_queries.inc()
        clauses, params = [], []
        if device is not None:
            clauses.append("device = ?")
            params.append(device)
        if fid is not None:
            clauses.append("fid = ?")
            params.append(fid)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        rows = self._conn.execute(
            f"SELECT * FROM (SELECT * FROM accesses {where} "
            f"ORDER BY id DESC LIMIT ?) ORDER BY id ASC",
            (*params, limit),
        ).fetchall()
        return [self._to_record(row) for row in rows]

    def max_rowid(self) -> int:
        """The largest access row id written so far (0 when empty).

        Row ids are assigned in arrival order, so this is the
        high-water-mark cursor the online-learning engine keeps between
        decision points.
        """
        self._flush_accesses()
        row = self._conn.execute("SELECT MAX(id) FROM accesses").fetchone()
        return int(row[0]) if row[0] is not None else 0

    def _window_rows(
        self,
        fields: str,
        *,
        limit: int | None = None,
        since: int | None = None,
        ids: Iterable[int] | None = None,
    ) -> list[tuple]:
        """Rows of one chronological access window, ``fields`` selected.

        The window is the rows above the ``since`` rowid cursor (all rows
        when ``None``), cut to the most recent ``limit``; or exactly the
        rows named by ``ids``.  Both ride the primary key, so the cost is
        O(rows returned) however large the table has grown.  Always in
        ascending-id order.
        """
        if since is not None and since < 0:
            raise ReplayDBError(f"rowid must be non-negative, got {since}")
        if limit is not None and limit <= 0:
            raise ReplayDBError(f"limit must be positive, got {limit}")
        if ids is not None:
            if limit is not None or since is not None:
                raise ReplayDBError("ids excludes limit and since")
            params = sorted({int(i) for i in ids})
            if not params:
                return []
            placeholders = ", ".join("?" for _ in params)
            source = f"accesses WHERE id IN ({placeholders})"
        else:
            params = [] if since is None else [since]
            source = "accesses" if since is None else "accesses WHERE id > ?"
            if limit is not None:
                source = f"(SELECT * FROM {source} ORDER BY id DESC LIMIT ?)"
                params.append(limit)
        query = f"SELECT {fields} FROM {source} ORDER BY id ASC"
        self._flush_accesses()
        self._m_queries.inc()
        return self._conn.execute(query, params).fetchall()

    def access_columns(
        self,
        *,
        limit: int | None = None,
        since: int | None = None,
        ids: Iterable[int] | None = None,
        extra: Sequence[str] = (),
    ) -> dict[str, np.ndarray]:
        """One chronological access window as flat numeric columns.

        The learner's telemetry read: the training window
        (``limit=training_rows``), the rows appended since a cursor
        (``since=rowid``, optionally only the newest ``limit`` of them --
        the online path's burst bound) or a replay sample (``ids=...``,
        duplicates collapse, unknown ids absent).  Training consumes a
        handful of numbers per access, so no AccessRecord is built: the
        result maps ``"id"`` (int64) and every :data:`PROBE_FIELDS` name
        (float64) to one array over the window's rows, oldest first;
        every array is empty when the window is.  ``extra`` names keys of
        the rows' extra-telemetry blob (EOS ``rt``/``wt``/...) to decode
        into one more float64 column each; a row without a named key
        raises :class:`~repro.errors.FeatureError`.
        """
        rows = self._window_rows(
            self._select(("id", *PROBE_FIELDS), extra),
            limit=limit, since=since, ids=ids,
        )
        columns = self._columns(rows, ("id", *PROBE_FIELDS), extra)
        columns["id"] = columns["id"].astype(np.int64)
        return columns

    @staticmethod
    def _select(names: Sequence[str], extra: Sequence[str]) -> str:
        """SELECT list for ``names``, plus the JSON blob when ``extra``."""
        return ", ".join((*names, "extra") if extra else names)

    @staticmethod
    def _columns(
        rows: list[tuple], names: Sequence[str], extra: Sequence[str]
    ) -> dict[str, np.ndarray]:
        """Rows selected by :meth:`_select` as named float64 columns.

        The blob is decoded once per row, and only when ``extra`` asks.
        """
        blobs: list[dict] = []
        if extra:
            blobs = [json.loads(row[-1]) for row in rows]
            rows = [row[:-1] for row in rows]
        data = np.array(rows, dtype=np.float64).reshape(len(rows), len(names))
        columns = {name: data[:, i] for i, name in enumerate(names)}
        columns.update(extra_columns(blobs, extra))
        return columns

    def _fids_with_rows(self, wanted: list[int]) -> list[int]:
        """The subset of ``wanted`` (sorted) that has access rows at all.

        The decision path asks for *every* file it manages, most of
        which may have no telemetry yet; one loose index scan
        over the distinct fids beats probing thousands of absent files
        one query at a time.  Small requests skip the scan -- the probes
        themselves are cheaper than reading the distinct list.
        """
        if len(wanted) <= 64:
            return wanted
        rows = self._conn.execute("SELECT DISTINCT fid FROM accesses")
        present = {int(row[0]) for row in rows}
        return [fid for fid in wanted if fid in present]

    def recent_access_columns_per_file(
        self, limit: int, fids: Iterable[int], *, extra: Sequence[str] = ()
    ) -> tuple[list[tuple[int, int, int]], dict[str, np.ndarray]]:
        """Most recent ``limit`` accesses of each file in ``fids``, as columns.

        The decision path's telemetry read: one indexed top-N probe per
        file (``idx_accesses_fid``, ORDER BY id DESC LIMIT k), so a
        decision epoch costs O(files x limit) however large the access
        log has grown, and the distinct-fid prefilter keeps a caller
        asking about a large (mostly untouched) population at O(files
        with telemetry) probes.  Returns ``(spans, columns)`` where
        ``spans`` lists ``(fid, start, stop)`` row ranges in fid-ascending
        order (each file's rows chronological; files without telemetry
        absent) and ``columns`` maps every :data:`PROBE_FIELDS` name --
        and every ``extra`` key, as in :meth:`access_columns` -- to one
        float64 array over all rows.  ``([], {})`` when no file has rows.
        """
        if limit <= 0:
            raise ReplayDBError(f"limit must be positive, got {limit}")
        self._flush_accesses()
        self._m_queries.inc()
        query = (
            f"SELECT {self._select(PROBE_FIELDS, extra)} FROM accesses "
            "WHERE fid = ? ORDER BY id DESC LIMIT ?"
        )
        rows = []
        execute = self._conn.execute
        for fid in self._fids_with_rows(sorted(set(fids))):
            rows.extend(reversed(execute(query, (fid, limit)).fetchall()))
        if not rows:
            return [], {}
        columns = self._columns(rows, PROBE_FIELDS, extra)
        fid_col = columns["fid"]
        starts = np.concatenate(
            ([0], np.flatnonzero(np.diff(fid_col)) + 1)
        )
        stops = np.concatenate((starts[1:], [len(fid_col)]))
        spans = [
            (int(fid_col[start]), int(start), int(stop))
            for start, stop in zip(starts, stops)
        ]
        return spans, columns

    def devices(self) -> list[str]:
        """Distinct device names present in the access log."""
        self._flush_accesses()
        rows = self._conn.execute(
            "SELECT DISTINCT device FROM accesses ORDER BY device"
        ).fetchall()
        return [row[0] for row in rows]

    def files(self) -> list[int]:
        """Distinct file ids present in the access log."""
        self._flush_accesses()
        rows = self._conn.execute(
            "SELECT DISTINCT fid FROM accesses ORDER BY fid"
        ).fetchall()
        return [row[0] for row in rows]

    def _device_aggregates(self) -> dict[str, tuple[int, float]]:
        """Per-device ``(row count, throughput sum)`` over every access.

        One primary-key range query over the rows appended since the last
        aggregate read, folded into the running totals: the cost is
        O(rows since the last read) however large the table has grown.
        """
        self._flush_accesses()
        self._m_queries.inc()
        rows = self._conn.execute(
            _DEVICE_TOTALS_SINCE_SQL, (self._totals_cursor,)
        ).fetchall()
        totals = self._device_totals
        for device, count, total, last_id in rows:
            have_count, have_total = totals.get(device, (0, 0.0))
            totals[device] = (have_count + count, have_total + total)
            self._totals_cursor = max(self._totals_cursor, last_id)
        return totals

    def _totals(self, device: str | None) -> tuple[int, float]:
        """``(row count, throughput sum)`` of one device, or of them all."""
        totals = self._device_aggregates()
        if device is not None:
            return totals.get(device, (0, 0.0))
        return (
            sum(count for count, _ in totals.values()),
            sum(total for _, total in totals.values()),
        )

    def access_count(self, *, device: str | None = None) -> int:
        """Accesses recorded so far, optionally on one device."""
        return self._totals(device)[0]

    def access_count_per_file(self) -> dict[int, int]:
        """Access frequency by file id (drives the LFU baseline)."""
        self._flush_accesses()
        rows = self._conn.execute(
            "SELECT fid, COUNT(*) FROM accesses GROUP BY fid"
        ).fetchall()
        return {int(fid): int(count) for fid, count in rows}

    def last_access_time_per_file(self) -> dict[int, float]:
        """Most recent close time by file id (drives LRU/MRU baselines)."""
        self._flush_accesses()
        rows = self._conn.execute(
            "SELECT fid, MAX(cts + ctms / 1000.0) FROM accesses GROUP BY fid"
        ).fetchall()
        return {int(fid): float(t) for fid, t in rows}

    def average_throughput(self, *, device: str | None = None) -> float:
        """Mean per-access throughput (bytes/s), optionally for one device."""
        count, total = self._totals(device)
        if not count:
            raise ReplayDBError(
                "no accesses recorded"
                + (f" for device {device!r}" if device else "")
            )
        return total / count

    def device_throughput_ranking(self) -> list[tuple[str, float]]:
        """Devices ordered fastest-first by mean observed throughput.

        The heuristic baselines (LRU/MRU/LFU) "start by taking the current
        total average throughput at each storage device using data collected
        in the ReplayDB" (section VI).  Equal means keep name order.
        """
        totals = self._device_aggregates()
        means = [
            (device, total / count)
            for device, (count, total) in sorted(totals.items())
        ]
        means.sort(key=lambda pair: pair[1], reverse=True)
        return means

    # -- movement log ------------------------------------------------------
    def movements(
        self,
        *,
        since: float | None = None,
        until: float | None = None,
        succeeded_only: bool = False,
    ) -> list[MovementRecord]:
        clauses, params = [], []
        if since is not None:
            clauses.append("timestamp >= ?")
            params.append(since)
        if until is not None:
            clauses.append("timestamp < ?")
            params.append(until)
        if succeeded_only:
            clauses.append("succeeded = 1")
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        rows = self._conn.execute(
            f"SELECT timestamp, fid, src_device, dst_device, bytes_moved, "
            f"duration, succeeded, trace_id FROM movements {where} "
            f"ORDER BY id ASC",
            params,
        ).fetchall()
        return [
            MovementRecord(*row[:6], succeeded=bool(row[6]), trace_id=row[7])
            for row in rows
        ]
