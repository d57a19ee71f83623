"""The ReplayDB: an in-memory column store of telemetry, behind a horizon.

The DRL engine trains on "the most recent X accesses for each of the storage
devices" (paper section V-E), so the query surface is built around
most-recent-N retrieval per device and per file, plus the movement log used
to cluster file migrations for the Fig. 5 bar charts.

Accesses are rows of numpy chunks about a training window long, appended
where telemetry lands; a row's id is its position + 1.  Per-file state is
folded in as rows land, per-device totals at the next aggregate read, so
the old rows are read only by windows: :meth:`ReplayDB.release_before`
frees the whole chunks below the oldest row a reader still needs (so the
live chunks follow the window), and a read that reaches a released row
raises.  A database outlives its process only as a snapshot: one ``.npz``
archive of the live rows and the folded state, not of the chunk layout.
"""

from __future__ import annotations

import array
import json
import os
import zipfile
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import astuple
from itertools import islice
from pathlib import Path

import numpy as np

from repro.errors import ReplayDBError
from repro.features.pipeline import NUMERIC_FIELDS, extra_columns
from repro.replaydb.records import ACCESS_FIELDS, AccessRecord, MovementRecord

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
#: a row as opaque bytes: whole rows are copied as these, ten times faster
_ROW_BYTES = np.dtype((np.void, _ROW.itemsize))

#: rows per chunk (240 KiB): the log grows a chunk at a time, never copying rows
_CHUNK_ROWS = 1 << 12

#: newest rows held per file: the deepest per-file read in ``src/`` (the
#: engine's probe asks ``PROBE_SAMPLES`` = 8).  A deeper ask raises.
_TAIL_DEPTH = 8


class ReplayDB:
    """Access/movement telemetry store, private to its process.

    Usable as a context manager; :meth:`close` drops the stored rows (and
    is idempotent), after which any further operation raises
    :class:`~repro.errors.ReplayDBError`.  :meth:`snapshot_to` and
    :meth:`from_snapshot` carry a database across processes.
    """

    def __init__(self) -> None:
        self._closed = False
        self._clear()
        #: access and movement rows inserted, and read queries served
        self.rows_written = self.queries = 0

    def _clear(self) -> None:
        """Empty every table."""
        #: chunk index -> rows; the chunks below ``_first`` are released
        self._chunks: dict[int, np.ndarray] = {}
        self._rows = 0
        #: position of the first row not released
        self._first = 0
        #: name -> code per coded field; a code is its name's index
        self._codes: dict[str, dict[str, int]] = {"device": {}, "path": {}}
        #: the JSON blob of each row that carries extra telemetry
        self._extras: dict[int, str] = {}
        self._movements: list[MovementRecord] = []
        #: per-device ``(row count, throughput sum)`` over the rows below
        #: ``_totals_cursor``; rows land above it, so the rows above the
        #: cursor are exactly the rows not yet folded in.
        self._device_totals: dict[str, tuple[int, float]] = {}
        self._totals_cursor = 0
        #: per-file state, folded in as rows land: every file's row count,
        #: latest close time and newest ``_TAIL_DEPTH`` row positions.  It
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
        """Write the database to one ``.npz`` archive at ``path``: the live
        rows, the first live row id and the folded per-file and per-device
        state.

        The archive is staged beside ``path`` and renamed into place, so a
        crash mid-export never leaves a torn snapshot at the destination.
        """
        self._check_open()
        tables = {
            "device": list(self._codes["device"]),
            "path": list(self._codes["path"]),
            "extra": self._extras,
            "movements": [astuple(m) for m in self._movements],
            "first": self._first + 1,
            "counts": list(self._file_counts.items()),
            "last_close": list(self._file_last_close.items()),
            "tails": [[fid, list(t)] for fid, t in self._file_tails.items()],
            "totals": [list(self._device_totals.items()), self._totals_cursor],
        }
        dest = Path(path)
        tmp = dest.with_name(f".{dest.name}.tmp")
        try:
            # Through a handle: np.savez appends ".npz" to a bare path.
            with open(tmp, "wb") as handle:
                np.savez(
                    handle,
                    rows=self._range(self._first, self._rows),
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
        """Replace this database's entire contents with a snapshot's; the
        folded state is restored, not refolded."""
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
            first = int(tables["first"]) - 1
            per_file = (
                dict(tables["counts"]), dict(tables["last_close"]),
                {fid: deque(tail, _TAIL_DEPTH) for fid, tail in tables["tails"]},
            )
            totals, cursor = tables["totals"]
            totals = {name: tuple(total) for name, total in totals}
        except (OSError, EOFError, KeyError, TypeError, ValueError,
                zipfile.BadZipFile) as exc:
            raise ReplayDBError(
                f"restoring snapshot {source!r} failed: {exc}"
            ) from exc
        self._clear()
        self._codes, self._extras, self._movements = codes, extras, movements
        self._first, self._rows = first, first + len(rows)
        for index in range(first // _CHUNK_ROWS, -(-self._rows // _CHUNK_ROWS)):
            base = index * _CHUNK_ROWS
            lo, hi = max(first, base), min(self._rows, base + _CHUNK_ROWS)
            chunk = self._chunks[index] = np.empty(_CHUNK_ROWS, _ROW)
            chunk[lo - base : hi - base] = rows[lo - first : hi - first]
        self._file_counts, self._file_last_close, self._file_tails = per_file
        self._device_totals, self._totals_cursor = totals, cursor
        return self

    @classmethod
    def from_snapshot(cls, snapshot: str | os.PathLike) -> "ReplayDB":
        """A new database filled from a snapshot."""
        return cls().load_snapshot(snapshot)

    # -- writes ----------------------------------------------------------
    def insert_accesses(self, records: Iterable[AccessRecord]) -> int:
        """Store accesses as the next rows, folded into the per-file state;
        returns the rows accepted.  A call it rejects stores nothing."""
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
            if index not in self._chunks:
                self._chunks[index] = np.empty(_CHUNK_ROWS, _ROW)
            lo = stop - start
            hi = min(n, lo + _CHUNK_ROWS - offset)
            rows = self._chunks[index][offset : offset + hi - lo]
            for name, column in stored.items():
                rows[name] = column if hi - lo == n else column[lo:hi]
            stop = start + hi
        self._rows = stop
        self._fold(start, stored)
        self.rows_written += n
        return n

    @staticmethod
    def _encode(table: dict[str, int], names: tuple[str, ...]) -> list[int]:
        """The codes of ``names``, new names appended to ``table``."""
        try:
            return list(map(table.__getitem__, names))
        except KeyError:
            return [table.setdefault(name, len(table)) for name in names]

    def _fold(self, start: int, stored: dict[str, array.array]) -> None:
        """Fold rows ``start, ...`` (their ``stored`` columns) into the
        per-file state, one run of a file's consecutive rows at a time."""
        counts, last, tails = (
            self._file_counts, self._file_last_close, self._file_tails
        )
        fids, cts, ctms = (
            np.frombuffer(stored[name], np.int64) for name in ("fid", "cts", "ctms")
        )
        runs = np.flatnonzero(np.concatenate(([True], fids[1:] != fids[:-1])))
        edges = runs.tolist() + [len(fids)]
        # ctms is below 1000, so the largest close time is the latest.
        latest = np.maximum.reduceat(cts + ctms / 1000.0, runs).tolist()
        for fid, lo, hi, close in zip(fids[runs].tolist(), edges, edges[1:], latest):
            rows = range(start + lo, start + hi)
            tail = tails.get(fid)
            if tail is None:
                tails[fid] = deque(rows, _TAIL_DEPTH)
                counts[fid], last[fid] = hi - lo, close
            else:
                tail.extend(rows)
                counts[fid] += hi - lo
                if close > last[fid]:
                    last[fid] = close

    def release_before(self, rowid: int) -> int:
        """Free the whole chunks below row id ``rowid``, clamped to the
        oldest row a per-file tail names; returns the first id still held.

        The device totals are folded first, so no aggregate or per-file
        read changes; a read that reaches a released row raises.  The last
        freed array serves the next chunk, so a log released as it grows
        is a fixed ring.
        """
        self._check_open()
        self._fold_totals()
        oldest = min(
            (tail[0] for tail in self._file_tails.values()), default=self._rows
        )
        stop = min(rowid - 1, oldest) // _CHUNK_ROWS
        if stop * _CHUNK_ROWS > self._first:
            for index in range(self._first // _CHUNK_ROWS, stop):
                del self._chunks[index]
            self._first = stop * _CHUNK_ROWS
            self._extras = {
                pos: blob for pos, blob in self._extras.items()
                if pos >= self._first
            }
        return self._first + 1

    def insert_movements(self, records: Iterable[MovementRecord]) -> int:
        """Bulk insert movements; returns the number of rows written."""
        self._check_open()
        rows = list(records)
        self._movements.extend(rows)
        self.rows_written += len(rows)
        return len(rows)

    # -- reads -----------------------------------------------------------
    def _check_held(self, position: int) -> None:
        """Raise when the row at ``position`` was released."""
        if position < self._first:
            raise ReplayDBError(
                f"the read reaches rows released below id {self._first + 1}"
            )

    def _take(self, positions: np.ndarray) -> np.ndarray:
        """The stored rows at ``positions`` (int64, any order)."""
        if len(positions):
            self._check_held(int(positions.min()))
        chunk_of, offsets = np.divmod(positions, _CHUNK_ROWS)
        indices = np.flatnonzero(np.bincount(chunk_of)).tolist()
        if len(indices) == 1:
            return self._chunks[indices[0]].view(_ROW_BYTES)[offsets].view(_ROW)
        rows = np.empty(len(positions), _ROW_BYTES)
        for index in indices:
            here = chunk_of == index
            rows[here] = self._chunks[index].view(_ROW_BYTES)[offsets[here]]
        return rows.view(_ROW)

    def _range(self, start: int, stop: int) -> np.ndarray:
        """The stored rows ``start:stop``: a view of one chunk, or the
        slices of the chunks they span joined."""
        if start == stop:
            return np.empty(0, _ROW)
        self._check_held(start)
        parts = [
            self._chunks[index].view(_ROW_BYTES)[max(0, start - base) : stop - base]
            for index in range(start // _CHUNK_ROWS, -(-stop // _CHUNK_ROWS))
            for base in (index * _CHUNK_ROWS,)
        ]
        return (parts[0] if len(parts) == 1 else np.concatenate(parts)).view(_ROW)

    def _records(self, positions: np.ndarray) -> list[AccessRecord]:
        rows = self._take(positions)
        fields = [rows[name].tolist() for name in ACCESS_FIELDS]
        devices, paths = list(self._codes["device"]), list(self._codes["path"])
        fields[2] = [devices[code] for code in fields[2]]
        fields[3] = [paths[code] for code in fields[3]]
        blobs = self._extras
        fields.append(
            [json.loads(blobs.get(pos, "{}")) for pos in positions.tolist()]
        )
        return [AccessRecord(*row) for row in zip(*fields)]

    def recent_accesses(self, limit: int) -> list[AccessRecord]:
        """The most recent ``limit`` accesses, in chronological order."""
        if limit <= 0:
            raise ReplayDBError(f"limit must be positive, got {limit}")
        self._check_open()
        self.queries += 1
        return self._records(np.arange(max(0, self._rows - limit), self._rows))

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
            wanted = np.sort(np.fromiter(ids, np.int64))
            if len(wanted):
                self.queries += 1
            wanted = wanted[(wanted >= 1) & (wanted <= self._rows)]
            # sorted and >= 1: a step up starts each distinct id
            positions = wanted[np.diff(wanted, prepend=0) != 0] - 1
            return self._take(positions), positions
        self.queries += 1
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
        self.queries += 1
        if limit > _TAIL_DEPTH:
            raise ReplayDBError(
                f"per-file reads hold the newest {_TAIL_DEPTH} rows, "
                f"asked for {limit}"
            )
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
        self.queries += 1
        return self._fold_totals()

    def _fold_totals(self) -> dict[str, tuple[int, float]]:
        """The per-device totals, the rows above the cursor folded in."""
        if self._totals_cursor == self._rows:
            return self._device_totals
        rows = self._range(self._totals_cursor, self._rows)
        # AccessRecord's throughput, in its floats.
        open_time = rows["ots"] + rows["otms"] / 1000.0
        close_time = rows["cts"] + rows["ctms"] / 1000.0
        throughput = (rows["rb"].astype(np.float64) + rows["wb"]) / (
            close_time - open_time
        )
        # A weighted bincount adds each device's rows in row order from 0.0,
        # the sequential sum (held to tests/oracles/device_totals.py).
        codes, names = rows["device"], list(self._codes["device"])
        counts, sums = np.bincount(codes), np.bincount(codes, weights=throughput)
        totals = self._device_totals
        for code in sorted(np.flatnonzero(counts).tolist(), key=names.__getitem__):
            have_count, have_total = totals.get(names[code], (0, 0.0))
            totals[names[code]] = (
                have_count + int(counts[code]), have_total + float(sums[code])
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
