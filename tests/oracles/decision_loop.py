"""The per-file decision loop ``DRLEngine.propose_layout`` must match.

One ReplayDB query per file and one model call per recent access of it
-- O(files x probe_samples) forward passes against the engine's one.
Identical layouts always; gains may differ in the last bit, because BLAS
picks different kernels for different batch heights.
"""

from __future__ import annotations

from repro.errors import ModelError


def propose_layout_reference(
    engine, db, fids: list[int], device_by_fsid: dict[int, str]
) -> tuple[dict[int, str], dict[int, float]]:
    """``(layout, gains)`` as ``engine.propose_layout`` returns them."""
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
            scores = engine.predict_location_throughputs(base, fsids)
            for fsid in fsids:
                totals[fsid] += scores[fsid]
        scores = {fsid: total / len(recent) for fsid, total in totals.items()}
        best, gain = engine._choose_placement(scores, recent[-1].fsid)
        layout[fid] = device_by_fsid[best]
        gains[fid] = gain
    return layout, gains
