"""Profiling hook: cProfile capture of one call.

:func:`profile_call` wraps any callable in :mod:`cProfile` and returns a
:class:`ProfileReport` whose top-N table ranks functions by cumulative
time -- the per-function view under the per-layer one of
:mod:`repro.observability.tracing`.  The CLI's ``--profile`` flag prints
it at run end.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from dataclasses import dataclass


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
