"""Parallel experiment harness: independent cells across processes.

Every grid experiment in this package is a list of independent cells --
one policy on one seeded environment (``fig5_comparison``, whose
``fig5a --seeds`` sweeps several), one model on one shared telemetry set
(``table2_comparison``).
The module that owns the experiment owns its cell function; this one
only evaluates them.  Each cell rebuilds *everything* it needs (cluster,
workload, ReplayDB, policy) from its seeds, so cells share no state and
their results are a pure function of ``(cell spec, code)``.

That makes parallelism trivial and, more importantly, *safe*: running the
grid across a ``ProcessPoolExecutor`` and merging in submission order is
bit-for-bit identical to the serial loop, because the serial loop computes
exactly the same pure function per cell.  The determinism rules:

1. cells never share mutable state (each worker rebuilds from seeds);
2. every stochastic input derives from the cell's seeds;
3. merge order is the submission order, never completion order;
4. ``workers=1`` bypasses multiprocessing entirely -- the deterministic
   fallback is the plain serial loop, not a one-process pool.

Wall-clock timing fields (e.g. Table II train times) are measured in the
worker and are the only non-deterministic outputs.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from typing import Any, TypeVar

from repro.errors import ExperimentError

_Cell = TypeVar("_Cell")


def run_cells(
    fn: Callable[[_Cell], Any],
    cells: Sequence[_Cell],
    *,
    workers: int = 1,
) -> list[Any]:
    """Evaluate ``fn`` over ``cells``, optionally across processes.

    Results come back in cell order regardless of completion order.
    ``workers=1`` is the deterministic fallback: a plain in-process loop
    with no multiprocessing machinery at all.  ``fn`` must be a
    module-level function and each cell picklable (the spawn start method
    is used so workers inherit no forked state).
    """
    if workers < 1:
        raise ExperimentError(f"workers must be >= 1, got {workers}")
    cells = list(cells)
    if workers == 1 or len(cells) <= 1:
        return [fn(cell) for cell in cells]
    with ProcessPoolExecutor(
        max_workers=min(workers, len(cells)),
        mp_context=get_context("spawn"),
    ) as pool:
        return list(pool.map(fn, cells))
