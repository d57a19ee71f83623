"""Trace serialization: JSONL and CSV access-log files.

The paper's methodology starts from access traces ("Traces are used as a
proof of concept...").  These helpers let users persist synthetic traces,
exchange them between runs, and feed externally captured EOS-style logs
into the ReplayDB.

* **JSONL** round-trips everything, including each record's ``extra``
  telemetry dict.
* **CSV** writes the fixed schema columns plus a stable, sorted union of
  extra keys -- convenient for spreadsheets and plotting tools.
"""

from __future__ import annotations

import csv
import json
import os
from collections.abc import Iterable, Sequence

from repro.errors import ReplayDBError
from repro.replaydb.db import ReplayDB
from repro.replaydb.records import (
    ACCESS_FIELDS,
    AccessRecord,
    record_from_dict,
    record_to_dict,
)


def save_trace_jsonl(
    records: Iterable[AccessRecord], path: str | os.PathLike
) -> int:
    """Write records to a JSONL file; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record_to_dict(record)) + "\n")
            count += 1
    return count


def load_trace_jsonl(path: str | os.PathLike) -> list[AccessRecord]:
    """Read records written by :func:`save_trace_jsonl`."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ReplayDBError(
                    f"{path}:{lineno}: invalid JSON ({exc})"
                ) from None
            try:
                records.append(record_from_dict(row))
            except (KeyError, TypeError, ValueError) as exc:
                raise ReplayDBError(
                    f"{path}:{lineno}: malformed record ({exc})"
                ) from None
    return records


def save_trace_csv(
    records: Sequence[AccessRecord], path: str | os.PathLike
) -> int:
    """Write records to CSV with a stable header.

    Extra-telemetry keys become additional columns (the sorted union over
    all records); records missing a key get an empty cell.
    """
    extra_keys = sorted({key for r in records for key in r.extra})
    header = list(ACCESS_FIELDS) + extra_keys
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for record in records:
            row = [getattr(record, name) for name in ACCESS_FIELDS]
            row.extend(record.extra.get(key, "") for key in extra_keys)
            writer.writerow(row)
    return len(records)


def load_trace_csv(path: str | os.PathLike) -> list[AccessRecord]:
    """Read records written by :func:`save_trace_csv`."""
    records = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ReplayDBError(f"{path}: empty CSV trace")
        missing = set(ACCESS_FIELDS) - set(reader.fieldnames)
        if missing:
            raise ReplayDBError(
                f"{path}: missing required columns {sorted(missing)}"
            )
        extra_keys = [
            name for name in reader.fieldnames if name not in ACCESS_FIELDS
        ]
        for lineno, row in enumerate(reader, start=2):
            try:
                extra = {
                    key: float(row[key])
                    for key in extra_keys
                    if row[key] not in ("", None)
                }
                records.append(
                    AccessRecord(
                        fid=int(row["fid"]),
                        fsid=int(row["fsid"]),
                        device=row["device"],
                        path=row["path"],
                        rb=int(row["rb"]),
                        wb=int(row["wb"]),
                        ots=int(row["ots"]),
                        otms=int(row["otms"]),
                        cts=int(row["cts"]),
                        ctms=int(row["ctms"]),
                        extra=extra,
                    )
                )
            except (KeyError, ValueError) as exc:
                raise ReplayDBError(
                    f"{path}:{lineno}: malformed record ({exc})"
                ) from None
    return records


def export_db(db: ReplayDB, path: str | os.PathLike) -> int:
    """Dump a ReplayDB's full access log to JSONL (chronological)."""
    total = db.access_count()
    if total == 0:
        raise ReplayDBError("replay database holds no accesses to export")
    return save_trace_jsonl(db.recent_accesses(total), path)


def import_db(db: ReplayDB, path: str | os.PathLike) -> int:
    """Load a JSONL trace into a ReplayDB; returns rows inserted."""
    return db.insert_accesses(load_trace_jsonl(path))
