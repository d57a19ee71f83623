"""Per-record feature and target extraction, as the pipeline once did it.

One Python-level accessor call per (record, feature) and one
``AccessRecord.throughput`` / ``.duration`` property read per record:
the readable specification of what ``FeaturePipeline``'s
``feature_matrix_from_columns`` and ``target_vector`` now compute from a
window of columns.  Also the
records -> columns adapter and record-list training the product gave up
when the learner came to read only ReplayDB windows.
"""

from __future__ import annotations

import numpy as np

from repro.features.pipeline import NUMERIC_FIELDS, extra_columns
from repro.features.smoothing import moving_average
from repro.replaydb.db import ReplayDB

_ACCESSORS = {
    "rb": lambda r: float(r.rb),
    "wb": lambda r: float(r.wb),
    "ots": lambda r: float(r.ots),
    "otms": lambda r: float(r.otms),
    "cts": lambda r: float(r.cts),
    "ctms": lambda r: float(r.ctms),
    "open_time": lambda r: r.open_time,
    "close_time": lambda r: r.close_time,
    "duration": lambda r: r.duration,
    "fid": lambda r: float(r.fid),
    "fsid": lambda r: float(r.fsid),
    "total_bytes": lambda r: float(r.total_bytes),
}


def _accessor(name):
    builtin = _ACCESSORS.get(name)
    return builtin if builtin is not None else lambda r: float(r.extra[name])


def record_feature_matrix(features, records) -> np.ndarray:
    """Raw feature matrix, one accessor call per (record, feature)."""
    accessors = [_accessor(name) for name in features]
    return np.array(
        [[accessor(r) for accessor in accessors] for r in records],
        dtype=np.float64,
    )


def record_target_vector(records, *, smoothing_window=10):
    """Raw throughput targets from each record's own property, smoothed
    per device."""
    values = np.array([r.throughput for r in records], dtype=np.float64)
    if smoothing_window == 1:
        return values
    fsids = np.array([r.fsid for r in records])
    out = np.empty_like(values)
    for fsid in np.unique(fsids):
        idx = np.flatnonzero(fsids == fsid)
        out[idx] = moving_average(values[idx], smoothing_window)
    return out


def record_columns(records, extra=()) -> dict[str, np.ndarray]:
    """One window of columns from a record list: every
    :data:`NUMERIC_FIELDS` column plus one per ``extra`` name, read from
    each record's ``extra`` dict."""
    columns = {
        name: np.array([getattr(r, name) for r in records], dtype=np.float64)
        for name in NUMERIC_FIELDS
    }
    columns.update(extra_columns([r.extra for r in records], extra))
    return columns


def training_set(pipeline, columns):
    """Widen ``pipeline``'s bounds over ``columns``, then transform them:
    the normalized ``(X, y)`` ``FeaturePipeline.fit_transform`` returns."""
    pipeline.partial_fit(columns)
    return (
        pipeline.transform_features(columns),
        pipeline.transform_target(columns),
    )


def train_on_records(engine, records):
    """Retrain ``engine`` on exactly ``records``, landed in a fresh
    ReplayDB: its newest ``training_rows`` must be all of them."""
    if len(records) > engine.config.training_rows:
        raise ValueError(
            f"{len(records)} records exceed training_rows "
            f"{engine.config.training_rows}"
        )
    db = ReplayDB()
    db.insert_accesses(records)
    return engine.train(db)
