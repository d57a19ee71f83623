"""Parallel experiment harness: (policy x seed) cells across processes.

Every experiment in this package is a grid of independent cells -- one
policy on one seeded environment, one model on one shared telemetry set,
one seed of an adaptation run.  Each cell rebuilds *everything* it needs
(cluster, workload, ReplayDB, policy) from its seeds, so cells share no
state and their results are a pure function of ``(cell spec, code)``.

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
from repro.experiments.fig5_comparison import (
    GEOMANCY,
    Fig5Result,
    collect_random_dynamic_telemetry,
    _geomancy_device_map,
)
from repro.experiments.harness import make_experiment_config
from repro.experiments.robustness import RobustnessResult, SeedOutcome
from repro.experiments.spec import ExperimentScale, TEST_SCALE
from repro.experiments.table2_comparison import (
    Table2Row,
    collect_mount_telemetry,
    evaluate_model,
)
from repro.nn.model_zoo import MODEL_NUMBERS

_Cell = TypeVar("_Cell")

#: the Fig. 5a (dynamic) and Fig. 5b (static) policy grids, by policy name
FIG5A_POLICIES: tuple[str, ...] = (
    "LRU", "MRU", "LFU", "random dynamic", GEOMANCY,
)
FIG5B_POLICIES: tuple[str, ...] = (
    "random static", "even spread", "Geomancy static", GEOMANCY,
)


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


# -- policy cells (Fig. 5a/5b, robustness) -------------------------------

def _build_policy(name: str, scale: ExperimentScale, seed: int):
    """Rebuild one comparison policy from its cell spec.

    Imported lazily per worker; the Geomancy static warm-up DB is
    regenerated from the seed, which reproduces the serial experiment's
    telemetry exactly (it too derives only from ``(scale, seed)``).
    """
    from repro.policies.geomancy_policy import (
        GeomancyDynamicPolicy,
        GeomancyStaticPolicy,
    )
    from repro.policies.lfu import LFUPolicy
    from repro.policies.lru import LRUPolicy
    from repro.policies.mru import MRUPolicy
    from repro.policies.random_policy import (
        RandomDynamicPolicy,
        RandomStaticPolicy,
    )
    from repro.policies.static import EvenSpreadPolicy

    if name == "LRU":
        return LRUPolicy()
    if name == "MRU":
        return MRUPolicy()
    if name == "LFU":
        return LFUPolicy()
    if name == "random dynamic":
        return RandomDynamicPolicy(seed=seed)
    if name == "random static":
        return RandomStaticPolicy(seed=seed)
    if name == "even spread":
        return EvenSpreadPolicy()
    if name == GEOMANCY:
        return GeomancyDynamicPolicy(
            _geomancy_device_map(seed), make_experiment_config(scale, seed=seed)
        )
    if name == "Geomancy static":
        warmup_db = collect_random_dynamic_telemetry(scale=scale, seed=seed)
        return GeomancyStaticPolicy(
            warmup_db,
            _geomancy_device_map(seed),
            make_experiment_config(scale, seed=seed),
        )
    raise ExperimentError(f"unknown comparison policy {name!r}")


def _policy_cell(cell: tuple[str, ExperimentScale, int]):
    """One (policy, scale, seed) measurement, rebuilt entirely in-worker."""
    from repro.experiments.harness import run_policy_experiment

    name, scale, seed = cell
    policy = _build_policy(name, scale, seed)
    return run_policy_experiment(policy, scale=scale, seed=seed)


def _run_fig5_grid(
    policies: Sequence[str],
    *,
    scale: ExperimentScale,
    seed: int,
    workers: int,
) -> Fig5Result:
    cells = [(name, scale, seed) for name in policies]
    results = run_cells(_policy_cell, cells, workers=workers)
    return Fig5Result(
        results={name: result for name, result in zip(policies, results)}
    )


def run_fig5a(
    *, scale: ExperimentScale = TEST_SCALE, seed: int = 0, workers: int = 1
) -> Fig5Result:
    """Fig. 5a with each policy measured in its own process."""
    return _run_fig5_grid(
        FIG5A_POLICIES, scale=scale, seed=seed, workers=workers
    )


def run_fig5b(
    *, scale: ExperimentScale = TEST_SCALE, seed: int = 0, workers: int = 1
) -> Fig5Result:
    """Fig. 5b with each policy measured in its own process."""
    return _run_fig5_grid(
        FIG5B_POLICIES, scale=scale, seed=seed, workers=workers
    )


def run_robustness(
    *,
    seeds: tuple[int, ...] = (0, 1, 2, 3),
    scale: ExperimentScale = TEST_SCALE,
    workers: int = 1,
) -> RobustnessResult:
    """Fig. 5a across seeds, parallelized over (policy x seed) cells.

    The grid is flattened to ``len(seeds) * len(FIG5A_POLICIES)`` cells --
    finer-grained than one-task-per-seed, so a handful of seeds still
    saturates the pool -- and regrouped by seed in submission order.
    """
    if not seeds:
        raise ExperimentError("need at least one seed")
    cells = [
        (name, scale, seed) for seed in seeds for name in FIG5A_POLICIES
    ]
    results = run_cells(_policy_cell, cells, workers=workers)
    outcomes = []
    per_seed = len(FIG5A_POLICIES)
    for i, seed in enumerate(seeds):
        chunk = results[i * per_seed : (i + 1) * per_seed]
        fig5 = Fig5Result(
            results={
                name: result for name, result in zip(FIG5A_POLICIES, chunk)
            }
        )
        best = fig5.best_baseline()
        outcomes.append(
            SeedOutcome(
                seed=seed,
                geomancy_gbps=fig5.mean(GEOMANCY),
                best_baseline=best,
                best_baseline_gbps=fig5.mean(best),
            )
        )
    return RobustnessResult(outcomes=outcomes)


# -- shard cells (scale sweep) -------------------------------------------

def _scale_cell(spec):
    """One shard decision-agent span, rebuilt entirely in-worker."""
    from repro.experiments.scale import run_shard_span

    return run_shard_span(spec)


def run_scale_spans(specs: Sequence[Any], *, workers: int = 1) -> list[Any]:
    """Execute shard spans (``ShardSpanSpec`` cells) across processes.

    Each span rebuilds its cluster slice, file slice, masked workload,
    ReplayDB, and agent purely from its spec, so submission-order merge
    makes any worker count bit-for-bit identical to the serial loop.
    """
    return run_cells(_scale_cell, list(specs), workers=workers)


# -- model cells (Table II) ----------------------------------------------

def _model_cell(cell: tuple[int, list, int, int]) -> Table2Row:
    """Train and score one Table-I architecture on shared telemetry."""
    model_number, records, epochs, seed = cell
    return evaluate_model(model_number, records, epochs=epochs, seed=seed)


def run_table2(
    *,
    rows: int = 12_000,
    epochs: int = 200,
    seed: int = 0,
    model_numbers: tuple[int, ...] = MODEL_NUMBERS,
    records: list | None = None,
    workers: int = 1,
) -> list[Table2Row]:
    """Table II with one model-training cell per process.

    The shared people-mount telemetry is collected once and shipped
    (pickled) to each worker; training is deterministic per
    ``(model, records, epochs, seed)``, so only the wall-clock timing
    columns differ from a serial run.
    """
    if records is None:
        records = collect_mount_telemetry("people", rows, seed=seed)
    cells = [(number, records, epochs, seed) for number in model_numbers]
    return run_cells(_model_cell, cells, workers=workers)
