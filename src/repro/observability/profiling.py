"""Profiling hooks: cProfile capture + per-span wall/CPU attribution.

Two complementary views of where a run spent its time:

* :func:`profile_call` wraps any callable in :mod:`cProfile` and returns
  a :class:`ProfileReport` whose top-N table ranks functions by
  cumulative time -- the micro view;
* :func:`span_attribution` aggregates a tracer's finished spans into a
  per-span-name wall/CPU table -- the control-loop view, answering "how
  much of the run was training vs. dispatch vs. simulator".

The CLI's ``--profile`` flag prints both at run end.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from dataclasses import dataclass, field

from repro.experiments.reporting import ascii_table
from repro.observability.tracing import Tracer


@dataclass
class ProfileReport:
    """Captured cProfile statistics plus the call's return value."""

    result: object
    stats: pstats.Stats
    #: wall seconds of the profiled call, from the Stats total
    total_seconds: float = 0.0

    def top_table(self, n: int = 15) -> str:
        """Top-``n`` functions by cumulative time, as text."""
        buffer = io.StringIO()
        stats = self.stats
        stats.stream = buffer
        stats.sort_stats("cumulative").print_stats(n)
        return buffer.getvalue()


def profile_call(fn, *args, **kwargs) -> ProfileReport:
    """Run ``fn(*args, **kwargs)`` under cProfile."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn(*args, **kwargs)
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler)
    return ProfileReport(
        result=result,
        stats=stats,
        total_seconds=float(getattr(stats, "total_tt", 0.0)),
    )


#: span names the attribution table lists, heaviest first
ATTRIBUTION_ROWS = 15


@dataclass
class SpanAttribution:
    """Wall/CPU totals per span name, ranked by wall time."""

    rows: list[dict] = field(default_factory=list)
    total_wall_s: float = 0.0

    def to_text(self) -> str:
        table_rows = [
            (
                row["name"],
                row["count"],
                f"{row['wall_s']:.4f}",
                f"{row['cpu_s']:.4f}",
                f"{row['mean_ms']:.3f}",
                f"{row['share_percent']:.1f}%",
            )
            for row in self.rows[:ATTRIBUTION_ROWS]
        ]
        return ascii_table(
            ["span", "count", "wall s", "cpu s", "mean ms", "share"],
            table_rows,
            title="Per-span attribution (by wall time)",
        )


def span_attribution(tracer: Tracer) -> SpanAttribution:
    """Aggregate a tracer's spans into a ranked attribution table.

    Share percentages are of the root ("tick") spans' total wall time
    when present, else of the sum over all spans -- nested spans overlap
    their parents, so shares of non-root rows can legitimately sum past
    100%.
    """
    aggregate = tracer.aggregate()
    root = aggregate.get("tick")
    total = (
        root["wall_s"]
        if root is not None and root["wall_s"] > 0
        else sum(entry["wall_s"] for entry in aggregate.values())
    )
    rows = []
    for name, entry in aggregate.items():
        rows.append(
            {
                "name": name,
                "count": entry["count"],
                "wall_s": entry["wall_s"],
                "cpu_s": entry["cpu_s"],
                "mean_ms": (
                    entry["wall_s"] / entry["count"] * 1e3
                    if entry["count"]
                    else 0.0
                ),
                "share_percent": (
                    100.0 * entry["wall_s"] / total if total > 0 else 0.0
                ),
            }
        )
    rows.sort(key=lambda row: -row["wall_s"])
    return SpanAttribution(rows=rows, total_wall_s=total)
