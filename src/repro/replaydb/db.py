"""The ReplayDB: an append-only, in-memory column store of telemetry.

The DRL engine trains on "the most recent X accesses for each of the storage
devices" (paper section V-E), so the query surface is built around
most-recent-N retrieval per device and per file, plus the movement log used
to cluster file migrations for the Fig. 5 bar charts.

Accesses are rows of fixed-size numpy chunks, appended where telemetry
lands; a row's id is its position + 1.  Per-file state is folded in as rows
land, per-device totals at the next aggregate read.  A database outlives
its process only as a snapshot: one ``.npz`` archive.
"""

from __future__ import annotations

import array
import json
import os
import zipfile
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import astuple
from itertools import groupby, islice
from pathlib import Path

import numpy as np

from repro.errors import ReplayDBError
from repro.features.pipeline import NUMERIC_FIELDS, extra_columns
from repro.observability import get_observability
from repro.replaydb.records import AccessRecord, MovementRecord

#: numeric access fields served by the columnar queries, in column order
PROBE_FIELDS: tuple[str, ...] = NUMERIC_FIELDS

#: one stored access, 60 bytes: the numeric fields (``otms``/``ctms`` are
#: validated to 0-999), then the device and path as codes into the
#: database's name tables.  ``extra`` telemetry is kept beside the rows,
#: only for the rows that carry it.
_ROW = np.dtype([
    ("fid", np.int64), ("fsid", np.int64), ("rb", np.int64),
    ("wb", np.int64), ("ots", np.int64), ("otms", np.int16),
    ("cts", np.int64), ("ctms", np.int16),
    ("device", np.int32), ("path", np.int32),
])

#: an AccessRecord's stored fields, in constructor order
_RECORD_FIELDS = (
    "fid", "fsid", "device", "path", "rb", "wb", "ots", "otms", "cts", "ctms",
)

#: rows per chunk: the log grows a chunk at a time, never copying its rows
_CHUNK_ROWS = 1 << 16

#: newest rows held per file: the deepest per-file read in ``src/`` (the
#: gap scheduler's 20; the engine's probe asks 8).  A deeper ask raises
#: the database's depth for good and pays one refold.
_TAIL_DEPTH = 20


class ReplayDB:
    """Access/movement telemetry store, private to its process.

    Usable as a context manager; :meth:`close` drops the stored rows (and
    is idempotent), after which any further operation raises
    :class:`~repro.errors.ReplayDBError`.  :meth:`snapshot_to` and
    :meth:`from_snapshot` carry a database across processes.
    """

    def __init__(self) -> None:
        self._closed = False
        self._tail_depth = _TAIL_DEPTH
        self._clear()
        metrics = get_observability().metrics
        self._m_rows_written = metrics.counter(
            "repro_replaydb_rows_written_total",
            "access and movement rows inserted",
        )
        self._m_queries = metrics.counter(
            "repro_replaydb_queries_total", "read queries served"
        )

    def _clear(self) -> None:
        """Empty every table (the per-file depth stays)."""
        self._chunks: list[np.ndarray] = []
        self._rows = 0
        #: name -> code per coded field; a code is its name's index
        self._codes: dict[str, dict[str, int]] = {"device": {}, "path": {}}
        #: the JSON blob of each row that carries extra telemetry
        self._extras: dict[int, str] = {}
        self._movements: list[MovementRecord] = []
        #: per-device ``(row count, throughput sum)`` over the rows below
        #: ``_totals_cursor``; the log is append-only, so the rows above
        #: the cursor are exactly the rows not yet folded in.
        self._device_totals: dict[str, tuple[int, float]] = {}
        self._totals_cursor = 0
        #: per-file state, folded in as rows land: every file's row count,
        #: latest close time and newest ``_tail_depth`` row positions.  It
        #: answers every per-file read.
        self._file_counts: dict[int, int] = {}
        self._file_last_close: dict[int, float] = {}
        self._file_tails: dict[int, deque[int]] = {}

    # -- lifecycle -----------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise ReplayDBError("ReplayDB is closed")

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._clear()

    def __enter__(self) -> "ReplayDB":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- snapshots -----------------------------------------------------------
    def snapshot_to(self, path: str | os.PathLike) -> Path:
        """Write the whole database to one ``.npz`` archive at ``path``.

        The archive is staged beside ``path`` and renamed into place, so a
        crash mid-export never leaves a torn snapshot at the destination.
        """
        self._check_open()
        tables = {
            "device": list(self._codes["device"]),
            "path": list(self._codes["path"]),
            "extra": self._extras,
            "movements": [astuple(m) for m in self._movements],
        }
        dest = Path(path)
        tmp = dest.with_name(f".{dest.name}.tmp")
        try:
            # Through a handle: np.savez appends ".npz" to a bare path.
            with open(tmp, "wb") as handle:
                np.savez(
                    handle,
                    rows=self._range(0, self._rows),
                    tables=np.frombuffer(json.dumps(tables).encode(), np.uint8),
                )
            os.replace(tmp, dest)
        except OSError as exc:
            raise ReplayDBError(f"snapshot to {dest} failed: {exc}") from exc
        finally:
            if tmp.exists():
                tmp.unlink()
        return dest

    def load_snapshot(self, path: str | os.PathLike) -> "ReplayDB":
        """Replace this database's entire contents with a snapshot's."""
        self._check_open()
        source = os.fspath(path)
        if not os.path.exists(source):
            raise ReplayDBError(f"no snapshot at {source!r}")
        try:
            with open(source, "rb") as handle, np.load(
                handle, allow_pickle=False
            ) as archive:
                rows = archive["rows"]
                tables = json.loads(archive["tables"].tobytes())
            if rows.dtype != _ROW or rows.ndim != 1:
                raise ValueError(f"rows of dtype {rows.dtype}")
            codes = {
                name: {key: code for code, key in enumerate(tables[name])}
                for name in ("device", "path")
            }
            extras = {int(pos): blob for pos, blob in tables["extra"].items()}
            movements = [MovementRecord(*row) for row in tables["movements"]]
        except (OSError, EOFError, KeyError, TypeError, ValueError,
                zipfile.BadZipFile) as exc:
            raise ReplayDBError(
                f"restoring snapshot {source!r} failed: {exc}"
            ) from exc
        self._clear()
        self._codes, self._extras, self._movements = codes, extras, movements
        for start in range(0, len(rows), _CHUNK_ROWS):
            part = rows[start : start + _CHUNK_ROWS]
            self._chunks.append(np.empty(_CHUNK_ROWS, _ROW))
            self._chunks[-1][: len(part)] = part
        self._rows = len(rows)
        self._refold()
        return self

    @classmethod
    def from_snapshot(cls, snapshot: str | os.PathLike) -> "ReplayDB":
        """A new database filled from a snapshot."""
        return cls().load_snapshot(snapshot)

    # -- writes ----------------------------------------------------------
    def insert_access(self, record: AccessRecord) -> int:
        """Store one access; returns its row id."""
        self.insert_accesses((record,))
        return self._rows

    def insert_accesses(self, records: Iterable[AccessRecord]) -> int:
        """Store accesses as the next rows, folded into the per-file state
        at once; returns the number of rows accepted."""
        self._check_open()
        # The eleven stored fields; the derived throughputs are not kept.
        columns = list(islice(zip(*records), 11))
        if not columns:
            return 0
        fid, fsid, device, path, rb, wb, ots, otms, cts, ctms, extra = columns
        try:
            stored = {
                name: array.array("q", column)
                for name, column in zip(
                    PROBE_FIELDS, (fid, fsid, rb, wb, ots, otms, cts, ctms)
                )
            }
        except (TypeError, OverflowError) as exc:
            raise ReplayDBError(
                f"numeric access fields must be 64-bit integers ({exc})"
            ) from None
        stored["device"] = self._encode(self._codes["device"], device)
        stored["path"] = self._encode(self._codes["path"], path)
        n = len(fid)
        start = stop = self._rows
        if any(extra):
            self._extras.update(
                (start + i, json.dumps(e)) for i, e in enumerate(extra) if e
            )
        while stop < start + n:
            index, offset = divmod(stop, _CHUNK_ROWS)
            if index == len(self._chunks):
                self._chunks.append(np.empty(_CHUNK_ROWS, _ROW))
            lo = stop - start
            hi = min(n, lo + _CHUNK_ROWS - offset)
            rows = self._chunks[index][offset : offset + hi - lo]
            for name, column in stored.items():
                rows[name] = column if hi - lo == n else column[lo:hi]
            stop = start + hi
        self._rows = stop
        self._fold(start, fid, list(zip(cts, ctms)))
        self._m_rows_written.inc(n)
        return n

    @staticmethod
    def _encode(table: dict[str, int], names: tuple[str, ...]) -> list[int]:
        """The codes of ``names``, new names appended to ``table``."""
        try:
            return [table[name] for name in names]
        except KeyError:
            return [table.setdefault(name, len(table)) for name in names]

    def _fold(
        self, start: int, fids: Sequence[int], closes: Sequence[tuple]
    ) -> None:
        """Fold rows ``start, start + 1, ...`` -- their fids and ``(cts,
        ctms)`` -- into the per-file state, a run of one file's
        consecutive rows at a time."""
        counts, last, tails = (
            self._file_counts, self._file_last_close, self._file_tails
        )
        lo = 0
        for fid, run in groupby(fids):
            hi = lo + len(list(run))
            # ctms is below 1000, so the largest pair is the latest close.
            cts, ctms = max(closes[lo:hi])
            close = cts + ctms / 1000.0
            rows = range(start + lo, start + hi)
            tail = tails.get(fid)
            if tail is None:
                tails[fid] = deque(rows, self._tail_depth)
                counts[fid], last[fid] = hi - lo, close
            else:
                tail.extend(rows)
                counts[fid] += hi - lo
                if close > last[fid]:
                    last[fid] = close
            lo = hi

    def _refold(self) -> None:
        """The per-file state, folded again from the first row."""
        self._file_counts, self._file_last_close, self._file_tails = {}, {}, {}
        for index, chunk in enumerate(self._chunks):
            rows = chunk[: self._rows - index * _CHUNK_ROWS]
            self._fold(
                index * _CHUNK_ROWS, rows["fid"].tolist(),
                list(zip(rows["cts"].tolist(), rows["ctms"].tolist())),
            )

    def _deepen(self, depth: int) -> None:
        """Hold at least ``depth`` rows per file from now on."""
        if depth > self._tail_depth:
            self._tail_depth = depth
            self._refold()

    def insert_movements(self, records: Iterable[MovementRecord]) -> int:
        """Bulk insert movements; returns the number of rows written."""
        self._check_open()
        rows = list(records)
        self._movements.extend(rows)
        self._m_rows_written.inc(len(rows))
        return len(rows)

    # -- reads -----------------------------------------------------------
    def _take(self, positions: np.ndarray) -> np.ndarray:
        """The stored rows at ``positions`` (int64, any order)."""
        chunk_of, offsets = np.divmod(positions, _CHUNK_ROWS)
        indices = np.unique(chunk_of).tolist()
        if len(indices) == 1:
            return self._chunks[indices[0]][offsets]
        rows = np.empty(len(positions), _ROW)
        for index in indices:
            here = chunk_of == index
            rows[here] = self._chunks[index][offsets[here]]
        return rows

    def _range(self, start: int, stop: int) -> np.ndarray:
        """The stored rows ``start:stop``: a view unless they straddle
        chunks."""
        index, offset = divmod(start, _CHUNK_ROWS)
        if start == stop or offset + stop - start <= _CHUNK_ROWS:
            chunk = self._chunks[index] if start < stop else np.empty(0, _ROW)
            return chunk[offset : offset + stop - start]
        return self._take(np.arange(start, stop))

    def _column(self, name: str) -> np.ndarray:
        """One stored field over every row."""
        parts = [chunk[name] for chunk in self._chunks]
        return np.concatenate(parts)[: self._rows] if parts else np.empty(0)

    @staticmethod
    def _to_record(row: tuple) -> AccessRecord:
        """The record of one stored row (:data:`_RECORD_FIELDS`, extra)."""
        return AccessRecord(*row)

    def _records(self, positions: np.ndarray) -> list[AccessRecord]:
        rows = self._take(positions)
        fields = [rows[name].tolist() for name in _RECORD_FIELDS]
        devices, paths = list(self._codes["device"]), list(self._codes["path"])
        fields[2] = [devices[code] for code in fields[2]]
        fields[3] = [paths[code] for code in fields[3]]
        blobs = self._extras
        fields.append(
            [json.loads(blobs.get(pos, "{}")) for pos in positions.tolist()]
        )
        return [self._to_record(row) for row in zip(*fields)]

    def recent_accesses(
        self,
        limit: int,
        *,
        device: str | None = None,
        fid: int | None = None,
    ) -> list[AccessRecord]:
        """The most recent ``limit`` accesses, in chronological order.

        Optionally restricted to one device or one file; one file's
        accesses come from the per-file state.
        """
        if limit <= 0:
            raise ReplayDBError(f"limit must be positive, got {limit}")
        self._check_open()
        self._m_queries.inc()
        if fid is not None and device is None:
            self._deepen(limit)
            tail = list(self._file_tails.get(fid, ()))[-limit:]
            return self._records(np.array(tail, dtype=np.int64))
        positions = np.arange(self._rows)
        if device is not None:
            code = self._codes["device"].get(device, -1)
            positions = positions[self._column("device") == code]
        if fid is not None:
            positions = positions[self._column("fid")[positions] == fid]
        return self._records(positions[-limit:])

    def max_rowid(self) -> int:
        """The largest access row id written so far (0 when empty).

        Row ids are assigned in arrival order, so this is the
        high-water-mark cursor the online-learning engine keeps between
        decision points.
        """
        self._check_open()
        return self._rows

    def _window(
        self,
        *,
        limit: int | None = None,
        since: int | None = None,
        ids: Iterable[int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One chronological access window: its rows and their positions.

        The window is the rows above the ``since`` rowid cursor (all rows
        when ``None``), cut to the most recent ``limit``; or exactly the
        rows named by ``ids``.
        """
        if since is not None and since < 0:
            raise ReplayDBError(f"rowid must be non-negative, got {since}")
        if limit is not None and limit <= 0:
            raise ReplayDBError(f"limit must be positive, got {limit}")
        self._check_open()
        if ids is not None:
            if limit is not None or since is not None:
                raise ReplayDBError("ids excludes limit and since")
            wanted = np.unique(np.fromiter(ids, np.int64))
            if len(wanted):
                self._m_queries.inc()
            positions = wanted[(wanted >= 1) & (wanted <= self._rows)] - 1
            return self._take(positions), positions
        self._m_queries.inc()
        start = 0 if since is None else min(since, self._rows)
        if limit is not None:
            start = max(start, self._rows - limit)
        return self._range(start, self._rows), np.arange(start, self._rows)

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
        the rows' extra telemetry (EOS ``rt``/``wt``/...) to decode into
        one more float64 column each; a row without a named key raises
        :class:`~repro.errors.FeatureError`.
        """
        rows, positions = self._window(limit=limit, since=since, ids=ids)
        return {"id": positions + 1, **self._columns(rows, positions, extra)}

    def _columns(
        self, rows: np.ndarray, positions: np.ndarray, extra: Sequence[str]
    ) -> dict[str, np.ndarray]:
        """Stored ``rows`` (at ``positions``) as named float64 columns.

        A row's extra telemetry is decoded only when ``extra`` asks.
        """
        data = np.empty((len(PROBE_FIELDS), len(rows)))
        for i, name in enumerate(PROBE_FIELDS):
            data[i] = rows[name]
        columns = dict(zip(PROBE_FIELDS, data))
        if extra:
            blobs = self._extras
            columns.update(extra_columns(
                [json.loads(blobs.get(pos, "{}")) for pos in positions.tolist()],
                extra,
            ))
        return columns

    def recent_access_columns_per_file(
        self, limit: int, fids: Iterable[int], *, extra: Sequence[str] = ()
    ) -> tuple[list[tuple[int, int, int]], dict[str, np.ndarray]]:
        """Most recent ``limit`` accesses of each file in ``fids``, as columns.

        The decision path's telemetry read, answered from the per-file
        state: O(files with telemetry x limit), however large the access
        log or the (mostly untouched) population asked about.  ``spans``
        lists ``(fid, start, stop)`` row ranges in fid-ascending order
        (each file's rows chronological; files without telemetry absent);
        ``columns`` maps every :data:`PROBE_FIELDS` name -- and every
        ``extra`` key, as in :meth:`access_columns` -- to one float64
        array over all rows.  ``([], {})`` when no file has rows.
        """
        if limit <= 0:
            raise ReplayDBError(f"limit must be positive, got {limit}")
        self._check_open()
        self._m_queries.inc()
        self._deepen(limit)
        tails, wanted = self._file_tails, set(fids)
        spans, positions = [], []
        for fid in sorted(fid for fid in tails if fid in wanted):
            start = len(positions)
            positions.extend(list(tails[fid])[-limit:])
            spans.append((fid, start, len(positions)))
        if not positions:
            return [], {}
        positions = np.array(positions, dtype=np.int64)
        return spans, self._columns(self._take(positions), positions, extra)

    def devices(self) -> list[str]:
        """Distinct device names present in the access log."""
        return sorted(self._device_aggregates())

    def files(self) -> list[int]:
        """Distinct file ids present in the access log."""
        self._check_open()
        return sorted(self._file_counts)

    def _device_aggregates(self) -> dict[str, tuple[int, float]]:
        """Per-device ``(row count, throughput sum)`` over every access.

        The rows appended since the last aggregate read are folded into
        the running totals, each device's added in row order: O(rows
        since the last read) however large the log has grown.
        """
        self._check_open()
        self._m_queries.inc()
        if self._totals_cursor == self._rows:
            return self._device_totals
        rows = self._range(self._totals_cursor, self._rows)
        # AccessRecord's throughput, in its floats.
        open_time = rows["ots"] + rows["otms"] / 1000.0
        close_time = rows["cts"] + rows["ctms"] / 1000.0
        throughput = (rows["rb"].astype(np.float64) + rows["wb"]) / (
            close_time - open_time
        )
        codes, names = rows["device"], list(self._codes["device"])
        totals = self._device_totals
        for code in sorted(np.unique(codes).tolist(), key=names.__getitem__):
            mine = throughput[codes == code]
            have_count, have_total = totals.get(names[code], (0, 0.0))
            totals[names[code]] = (
                have_count + len(mine), have_total + float(np.cumsum(mine)[-1])
            )
        self._totals_cursor = self._rows
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
        self._check_open()
        return dict(sorted(self._file_counts.items()))

    def last_access_time_per_file(self) -> dict[int, float]:
        """Most recent close time by file id (drives LRU/MRU baselines)."""
        self._check_open()
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
    def movements(self) -> list[MovementRecord]:
        """Every recorded movement, oldest first."""
        self._check_open()
        return list(self._movements)
