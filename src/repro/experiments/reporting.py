"""Plain-text rendering of experiment results (tables and series)."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ExperimentError

#: decimals of each half of a ``mean ± std`` cell
MEAN_STD_DIGITS = 2
#: rows of the Fig. 5 movement-bar chart
BAR_HEIGHT = 4
#: accesses per point of the Fig. 5 / Fig. 6 throughput curves
BUCKET_ACCESSES = 500


def ascii_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], *, title: str = ""
) -> str:
    """Render an aligned ASCII table."""
    if not headers:
        raise ExperimentError("table needs headers")
    str_rows = [[str(cell) for cell in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ExperimentError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    def fmt(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(w) for cell, w in zip(cells, widths))
    lines = []
    if title:
        lines.append(title)
    lines.append(fmt(list(headers)))
    lines.append("-+-".join("-" * w for w in widths))
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)


def mean_std(value: float, std: float) -> str:
    """Format as the paper's ``mean +/- std``."""
    return f"{value:.{MEAN_STD_DIGITS}f} ± {std:.{MEAN_STD_DIGITS}f}"


def bucket_series(
    values: Sequence[float], bucket: int
) -> tuple[np.ndarray, np.ndarray]:
    """Average a per-access series into fixed-size buckets.

    Fig. 5/6 plot "the average accesses throughput done by the workloads
    over 500 accesses"; returns ``(bucket_end_access_numbers, means)``.
    The final partial bucket is included.
    """
    if bucket < 1:
        raise ExperimentError(f"bucket must be >= 1, got {bucket}")
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return np.array([], dtype=np.int64), np.array([])
    edges = list(range(bucket, arr.size + 1, bucket))
    if not edges or edges[-1] != arr.size:
        edges.append(arr.size)
    means = [arr[max(0, end - bucket) : end].mean() for end in edges]
    return np.asarray(edges, dtype=np.int64), np.asarray(means)


def sparkline(values: Sequence[float], *, width: int = 60) -> str:
    """A terminal sparkline of a series (for figure-style output)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return ""
    if arr.size > width:
        idx = np.linspace(0, arr.size - 1, width).astype(int)
        arr = arr[idx]
    blocks = "▁▂▃▄▅▆▇█"
    lo, hi = float(arr.min()), float(arr.max())
    if hi - lo < 1e-12:
        return blocks[0] * arr.size
    scaled = ((arr - lo) / (hi - lo) * (len(blocks) - 1)).astype(int)
    return "".join(blocks[s] for s in scaled)


def movement_bars(
    movements: list[tuple[int, int]],
    total_accesses: int,
    *,
    width: int = 60,
) -> str:
    """Render the Fig. 5 movement bars: when and how many files moved.

    ``movements`` is a list of ``(access_number, files_moved)`` pairs; the
    output is a :data:`BAR_HEIGHT`-row text chart aligned to a
    ``width``-column timeline of ``total_accesses`` accesses.
    """
    if width < 1:
        raise ExperimentError("width must be >= 1")
    if total_accesses < 1:
        raise ExperimentError("total_accesses must be >= 1")
    columns = [0] * width
    for access_number, count in movements:
        if count < 0 or access_number < 0:
            raise ExperimentError(
                f"invalid movement entry ({access_number}, {count})"
            )
        col = min(width - 1, access_number * width // total_accesses)
        columns[col] += count
    peak = max(columns) if any(columns) else 0
    if peak == 0:
        return "(no file movements)"
    lines = []
    for level in range(BAR_HEIGHT, 0, -1):
        threshold = peak * level / BAR_HEIGHT
        row = "".join(
            "█" if value >= threshold and value > 0 else " "
            for value in columns
        )
        lines.append(row)
    lines.append("─" * width)
    lines.append(f"peak: {peak} files moved in one relayout")
    return "\n".join(lines)
