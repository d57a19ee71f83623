"""Per-record feature and target extraction, as the pipeline once did it.

One Python-level accessor call per (record, feature) and one
``AccessRecord.throughput`` / ``.duration`` property read per record:
the readable specification of what ``FeaturePipeline.feature_matrix``
and ``target_vector`` now compute from a window of columns.
"""

from __future__ import annotations

import numpy as np

from repro.features.smoothing import moving_average

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


def record_target_vector(records, *, target="throughput", smoothing_window=10):
    """Raw targets from each record's own property, smoothed per device."""
    if target == "throughput":
        values = np.array([r.throughput for r in records], dtype=np.float64)
    else:
        values = np.array([r.duration for r in records], dtype=np.float64)
    if smoothing_window == 1:
        return values
    fsids = np.array([r.fsid for r in records])
    out = np.empty_like(values)
    for fsid in np.unique(fsids):
        idx = np.flatnonzero(fsids == fsid)
        out[idx] = moving_average(values[idx], smoothing_window)
    return out
