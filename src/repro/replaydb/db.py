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
from collections import defaultdict
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

#: one stored access row: what an insert binds, what the per-file tails
#: hold and what :meth:`ReplayDB._to_record` reads.  The columnar fields
#: lead, so a probe row is a prefix of a stored one.
_ROW_FIELDS = (*PROBE_FIELDS, "extra", "device", "path", "throughput")
_ROW_SQL = ", ".join(_ROW_FIELDS)
_CTS, _CTMS = _ROW_FIELDS.index("cts"), _ROW_FIELDS.index("ctms")

#: SQL shared by the eager single-row and deferred bulk insert paths
_INSERT_ACCESS_SQL = (
    f"INSERT INTO accesses ({_ROW_SQL}) "
    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
)

#: newest rows held per file: the deepest per-file read in ``src/`` (the
#: gap scheduler's 20; the engine's probe asks 8).  A deeper ask raises
#: the database's depth for good and pays one rebuild.
_TAIL_DEPTH = 20

#: the per-device aggregate's increment: the rows above the cursor, grouped
_DEVICE_TOTALS_SINCE_SQL = (
    "SELECT device, COUNT(*), SUM(throughput), MAX(id) "
    "FROM accesses WHERE id > ? GROUP BY device"
)

#: what older files and snapshots indexed: nothing reads either any
#: more, and their upkeep was half the cost of a bulk insert
_DROP_LEGACY_INDEXES = """
DROP INDEX IF EXISTS idx_accesses_device;
DROP INDEX IF EXISTS idx_accesses_fid;
"""

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
        #: per-file state, folded from each batch where it lands: every
        #: file's row count, latest close time and newest ``_tail_depth``
        #: stored rows (oldest first; at most depth x files that have
        #: telemetry).  It answers every per-file read without a query.
        self._file_counts: dict[int, int] = {}
        self._file_last_close: dict[int, float] = {}
        self._file_tails: dict[int, list[tuple]] = {}
        self._tail_depth = _TAIL_DEPTH
        self._raw_conn = sqlite3.connect(path)
        if not self.in_memory:
            # WAL survives crashes with at most the last transaction lost
            # and lets checkpoint readers run alongside the writer;
            # synchronous=NORMAL is WAL's intended durability pairing.
            self._raw_conn.execute("PRAGMA journal_mode=WAL")
            self._raw_conn.execute("PRAGMA synchronous=NORMAL")
        self._raw_conn.executescript(_SCHEMA + _DROP_LEGACY_INDEXES)
        self._raw_conn.commit()
        #: rows this object did not land (an existing file, a restored
        #: snapshot; a second writer is not noticed) leave that state stale
        #: until the next per-file read rebuilds it; an empty start never is.
        self._files_stale = self.max_rowid() > 0
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
        """Land buffered access rows in sqlite (arrival order); fold them."""
        if self._pending_accesses:
            rows = self._pending_accesses
            self._pending_accesses = []
            self._conn.executemany(_INSERT_ACCESS_SQL, rows)
            self._conn.commit()
            self._fold_accesses(rows)

    def _fold_accesses(self, rows: list[tuple]) -> None:
        """Fold rows that just landed (arrival order) into the per-file
        state: one group-by-fid, then O(distinct files x depth)."""
        groups: dict[int, list[tuple]] = defaultdict(list)
        for row in rows:
            groups[row[0]].append(row)
        counts, closes = self._file_counts, self._file_last_close
        depth = self._tail_depth
        for fid, group in groups.items():
            counts[fid] = counts.get(fid, 0) + len(group)
            last = max(row[_CTS] + row[_CTMS] / 1000.0 for row in group)
            closes[fid] = max(closes.get(fid, last), last)
            tail = self._file_tails.setdefault(fid, [])
            tail.extend(group[-depth:])
            del tail[:-depth]

    def _per_file_state(self, depth: int = 1) -> None:
        """Make the per-file state current and at least ``depth`` deep."""
        self._flush_accesses()
        if depth > self._tail_depth:
            self._tail_depth, self._files_stale = depth, True
        if self._files_stale:
            # One ordered pass, in batches no larger than the write path's.
            self._file_counts, self._file_last_close = {}, {}
            self._file_tails = {}
            self._files_stale = False
            cursor = self._conn.execute(
                f"SELECT {_ROW_SQL} FROM accesses ORDER BY id"
            )
            while rows := cursor.fetchmany(self.max_pending_accesses):
                self._fold_accesses(rows)

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
        self._conn.executescript(_DROP_LEGACY_INDEXES)
        # The table was replaced wholesale: the next aggregate read and
        # the next per-file read start over from the snapshot's first row.
        self._device_totals = {}
        self._totals_cursor = 0
        self._files_stale = True
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
        row = (
            record.fid, record.fsid, record.rb, record.wb, record.ots,
            record.otms, record.cts, record.ctms, json.dumps(record.extra),
            record.device, record.path, record.throughput,
        )
        cur = self._conn.execute(_INSERT_ACCESS_SQL, row)
        self._conn.commit()
        self._fold_accesses([row])
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
                fid, fsid, rb, wb, ots, otms, cts, ctms,
                dumps(extra) if extra else "{}", device, path, throughput,
            )
            for (fid, fsid, device, path, rb, wb, ots, otms, cts, ctms,
                 extra, throughput, _) in records
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
        """The record one stored row (:data:`_ROW_FIELDS`) came from."""
        fields = dict(zip(_ROW_FIELDS, row))
        del fields["throughput"]  # the record derives it
        fields["extra"] = json.loads(fields["extra"])
        return AccessRecord(**fields)

    def recent_accesses(
        self,
        limit: int,
        *,
        device: str | None = None,
        fid: int | None = None,
    ) -> list[AccessRecord]:
        """The most recent ``limit`` accesses, in chronological order.

        Optionally restricted to one device or one file; one file's
        accesses come from the per-file state, without a query.
        """
        if limit <= 0:
            raise ReplayDBError(f"limit must be positive, got {limit}")
        self._m_queries.inc()
        if fid is not None and device is None:
            self._per_file_state(limit)
            rows = self._file_tails.get(fid, [])[-limit:]
            return [self._to_record(row) for row in rows]
        self._flush_accesses()
        clauses, params = [], []
        if device is not None:
            clauses.append("device = ?")
            params.append(device)
        if fid is not None:
            clauses.append("fid = ?")
            params.append(fid)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        rows = self._conn.execute(
            f"SELECT {_ROW_SQL} FROM (SELECT * FROM accesses {where} "
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

    def recent_access_columns_per_file(
        self, limit: int, fids: Iterable[int], *, extra: Sequence[str] = ()
    ) -> tuple[list[tuple[int, int, int]], dict[str, np.ndarray]]:
        """Most recent ``limit`` accesses of each file in ``fids``, as columns.

        The decision path's telemetry read, answered from the per-file
        state: O(files with telemetry x limit) and no query, however
        large the access log or the (mostly untouched) population asked
        about.  ``spans`` lists ``(fid, start, stop)`` row ranges in
        fid-ascending order (each file's rows chronological; files
        without telemetry absent); ``columns`` maps every
        :data:`PROBE_FIELDS` name -- and every ``extra`` key, as in
        :meth:`access_columns` -- to one float64 array over all rows.
        ``([], {})`` when no file has rows.
        """
        if limit <= 0:
            raise ReplayDBError(f"limit must be positive, got {limit}")
        self._m_queries.inc()
        self._per_file_state(limit)
        tails, wanted = self._file_tails, set(fids)
        spans, rows = [], []
        for fid in sorted(fid for fid in tails if fid in wanted):
            start = len(rows)
            rows.extend(tails[fid][-limit:])
            spans.append((fid, start, len(rows)))
        if not rows:
            return [], {}
        width = len(PROBE_FIELDS) + bool(extra)  # the blob follows them
        rows = [row[:width] for row in rows]
        return spans, self._columns(rows, PROBE_FIELDS, extra)

    def devices(self) -> list[str]:
        """Distinct device names present in the access log."""
        return sorted(self._device_aggregates())

    def files(self) -> list[int]:
        """Distinct file ids present in the access log."""
        self._per_file_state()
        return sorted(self._file_counts)

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
        self._per_file_state()
        return dict(sorted(self._file_counts.items()))

    def last_access_time_per_file(self) -> dict[int, float]:
        """Most recent close time by file id (drives LRU/MRU baselines)."""
        self._per_file_state()
        return dict(sorted(self._file_last_close.items()))

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
