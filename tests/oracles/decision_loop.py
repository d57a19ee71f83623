"""The per-file decision loop ``DRLEngine.propose_layout`` must match.

One per-file read (``file_records``, filtering every stored access) and
one model call per recent access of each file -- O(files x PROBE_SAMPLES)
forward passes against the engine's one.  Each file is scored against the
same menu: every candidate on a cluster of at most ``PROBE_TOP_DEVICES``,
otherwise the best-ranked ones plus the file's own device.
Identical layouts always; gains may differ in the last bit, because BLAS
picks different kernels for different batch heights.
"""

from __future__ import annotations

import numpy as np

from repro.core import engine as engine_module
from repro.errors import ModelError
from tests.oracles.record_features import record_columns
from tests.oracles.record_windows import file_records


def ordered_column_sum(matrix: np.ndarray) -> np.ndarray:
    """Column sums accumulated row by row, in order.

    The addition order ``repro.core.engine._ordered_span_sums`` must
    reproduce for every span (``matrix.sum(axis=0)`` sums pairwise and
    can differ by an ulp).
    """
    total = np.zeros(matrix.shape[1], dtype=np.float64)
    for row in matrix:
        total += row
    return total


def propose_layout_reference(
    engine, db, fids: list[int], device_by_fsid: dict[int, str],
    *, candidates: dict[int, dict[int, float]] | None = None,
) -> tuple[dict[int, str], dict[int, float]]:
    """``(layout, gains)`` as ``engine.propose_layout`` returns them.

    A ``candidates`` dict is filled as the engine fills its
    ``last_candidates``: fid -> every menu location's mean score.
    """
    if not device_by_fsid:
        raise ModelError("no candidate locations supplied")
    top = top_devices(db, device_by_fsid)
    layout: dict[int, str] = {}
    gains: dict[int, float] = {}
    for fid in fids:
        recent = file_records(db, fid, engine_module.PROBE_SAMPLES)
        if not recent:
            continue
        current = recent[-1].fsid
        menu = list(top)
        if current in device_by_fsid and current not in top:
            menu.append(current)
        totals = {fsid: 0.0 for fsid in menu}
        for base in recent:
            row = engine.predict_throughput_matrix(
                record_columns([base], engine.pipeline.extra_features), menu
            )[0]
            for fsid, score in zip(menu, row):
                totals[fsid] += float(score)
        scores = {fsid: total / len(recent) for fsid, total in totals.items()}
        best, gain = engine._choose_placement(scores, current)
        layout[fid] = device_by_fsid[best]
        gains[fid] = gain
        if candidates is not None:
            candidates[fid] = scores
    return layout, gains


def top_devices(db, device_by_fsid: dict[int, str]) -> list[int]:
    """The candidates every file is scored against, ascending by fsid.

    All of them up to ``PROBE_TOP_DEVICES``; beyond, that many taken from
    the ReplayDB's fastest-first device ranking, then (devices with no
    telemetry) by fsid.
    """
    k = engine_module.PROBE_TOP_DEVICES
    fsids = sorted(device_by_fsid)
    if len(fsids) <= k:
        return fsids
    ranked = [
        fsid
        for device, _ in db.device_throughput_ranking()
        for fsid in fsids if device_by_fsid[fsid] == device
    ]
    unranked = [fsid for fsid in fsids if fsid not in ranked]
    return sorted((ranked + unranked)[:k])
