"""Layout diffing and move capping.

"Geomancy limits how often and how much data can be transferred at once"
(section V-A); "On average, Geomancy moves between 1-14 files in one
movement" (section VI).  ``cap_moves`` keeps the moves with the largest
predicted gains when a proposal exceeds the per-movement budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PolicyError

#: most files one movement may move ("between 1-14 files in one movement")
MAX_FILES_PER_MOVE = 14


@dataclass(frozen=True)
class LayoutChange:
    """One proposed file move."""

    fid: int
    src: str
    dst: str
    #: predicted throughput gain (bytes/s), when the engine supplied one
    predicted_gain: float = 0.0


def layout_diff(
    current: dict[int, str], proposed: dict[int, str]
) -> list[LayoutChange]:
    """Moves needed to take ``current`` to ``proposed``.

    Files absent from ``proposed`` stay put; files absent from ``current``
    are unknown and rejected.
    """
    changes = []
    for fid, dst in sorted(proposed.items()):
        try:
            src = current[fid]
        except KeyError:
            raise PolicyError(
                f"proposed layout references unknown file {fid}"
            ) from None
        if src != dst:
            changes.append(LayoutChange(fid=fid, src=src, dst=dst))
    return changes


def cap_moves(
    changes: list[LayoutChange],
    max_moves: int,
    gains: dict[int, float] | None = None,
) -> list[LayoutChange]:
    """Keep at most ``max_moves`` changes, preferring the biggest gains.

    ``gains`` maps fid to the engine's predicted throughput improvement;
    without it, the first ``max_moves`` changes (fid order) are kept.
    """
    if max_moves < 1:
        raise PolicyError(f"max_moves must be >= 1, got {max_moves}")
    if len(changes) <= max_moves:
        return list(changes)
    if gains is None:
        return list(changes[:max_moves])
    ranked = sorted(
        changes, key=lambda c: gains.get(c.fid, 0.0), reverse=True
    )
    kept = ranked[:max_moves]
    # Preserve deterministic fid order for application.
    return sorted(kept, key=lambda c: c.fid)


def as_layout(changes: list[LayoutChange]) -> dict[int, str]:
    """Collapse changes back into a fid -> device mapping."""
    return {c.fid: c.dst for c in changes}
