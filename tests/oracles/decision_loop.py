"""The per-file decision loop ``DRLEngine.propose_layout`` must match.

One per-file read (``recent_accesses(limit, fid=)``) and one model call
per recent access of each file -- O(files x probe_samples) forward passes
against the engine's one.
Identical layouts always; gains may differ in the last bit, because BLAS
picks different kernels for different batch heights.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError


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
    ``last_candidates``: fid -> every location's mean score.
    """
    if not device_by_fsid:
        raise ModelError("no candidate locations supplied")
    fsids = sorted(device_by_fsid)
    layout: dict[int, str] = {}
    gains: dict[int, float] = {}
    for fid in fids:
        recent = db.recent_accesses(engine.config.probe_samples, fid=fid)
        if not recent:
            continue
        totals = {fsid: 0.0 for fsid in fsids}
        for base in recent:
            row = engine.predict_throughput_matrix([base], fsids)[0]
            for fsid, score in zip(fsids, row):
                totals[fsid] += float(score)
        scores = {fsid: total / len(recent) for fsid, total in totals.items()}
        best, gain = engine._choose_placement(scores, recent[-1].fsid)
        layout[fid] = device_by_fsid[best]
        gains[fid] = gain
        if candidates is not None:
            candidates[fid] = scores
    return layout, gains
