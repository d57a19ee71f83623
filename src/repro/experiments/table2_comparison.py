"""Table II: comparing all 23 architectures on people-mount telemetry.

"In Table II, we report the accuracy of all 23 models when modeling
throughput on the people mount."  Each model is trained with the shared
protocol (chronological 60/20/20 split, plain SGD, fixed epochs) and scored
by mean/std absolute relative error, wall-clock training time, and
prediction time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.config import GeomancyConfig
from repro.core.engine import DRLEngine, TrainingReport
from repro.experiments.harness import bluesky_runner
from repro.experiments.parallel import run_cells
from repro.experiments.reporting import ascii_table, mean_std
from repro.experiments.spec import ExperimentScale
from repro.nn.model_zoo import MODEL_NUMBERS
from repro.replaydb.db import ReplayDB

#: The Z = 6 telemetry features of the paper's bullet list (section V-D):
#: the access-accuracy experiments (Tables II and III) use the full
#: timestamp pairs, exactly as the paper describes its model inputs.  (The
#: live placement engine swaps the close timestamp for identity features
#: to keep the per-location probe informative -- see
#: :mod:`repro.features.pipeline`.)
TABLE_FEATURES: tuple[str, ...] = ("rb", "wb", "ots", "otms", "cts", "ctms")

#: smoothing window for the accuracy experiments; the paper smooths its
#: 12,000-entry training sets with a moving average (section V-E)
TABLE_SMOOTHING_WINDOW = 200

#: rows of the timed prediction batch: one probe, one per candidate location
PROBE_ROWS = 6
#: forward passes the prediction time is averaged over
PREDICT_REPEATS = 20


def collect_mount_telemetry(mount: str, rows: int, *, seed: int = 0) -> ReplayDB:
    """A ReplayDB of at least ``rows`` BELLE II accesses with every file
    pinned to one mount."""
    runner = bluesky_runner(seed, db=ReplayDB())
    runner.ensure_files_placed({f.fid: mount for f in runner.workload.files})
    runner.warm_up(rows)
    return runner.db


def train_and_time(
    engine: DRLEngine, db: ReplayDB
) -> tuple[TrainingReport, float]:
    """Train ``engine`` on ``db``'s newest ``training_rows`` accesses and
    time a prediction: the mean milliseconds of one forward pass over
    the newest :data:`PROBE_ROWS` accesses."""
    report = engine.train(db)
    batch = engine.pipeline.transform_features(db.access_columns(
        limit=PROBE_ROWS, extra=engine.pipeline.extra_features
    ))
    start = time.perf_counter()
    for _ in range(PREDICT_REPEATS):
        engine.model.predict(batch)
    predict_ms = (time.perf_counter() - start) / PREDICT_REPEATS * 1000.0
    return report, predict_ms


@dataclass
class Table2Row:
    """One model's scores."""

    model_number: int
    diverged: bool
    mare: float
    mare_std: float
    train_seconds: float
    predict_ms: float

    def error_cell(self) -> str:
        if self.diverged:
            return "Diverged"
        return mean_std(self.mare, self.mare_std)


@dataclass
class Table2Result:
    """One row per model of ``MODEL_NUMBERS``."""

    rows: list[Table2Row]

    def to_text(self) -> str:
        body = [
            (
                row.model_number,
                row.error_cell(),
                f"{row.train_seconds:.3f}",
                f"{row.predict_ms:.3f}",
            )
            for row in self.rows
        ]
        return ascii_table(
            ["Model", "Mean abs. relative error (%)", "Training time (s)",
             "Prediction time (ms)"],
            body,
            title="Table II -- model comparison on the people mount",
        )


def table_config(
    model_number: int, scale: ExperimentScale, seed: int
) -> GeomancyConfig:
    """The shared Table II/III training configuration."""
    return GeomancyConfig(
        model_number=model_number,
        features=TABLE_FEATURES,
        smoothing_window=TABLE_SMOOTHING_WINDOW,
        epochs=scale.epochs,
        training_rows=scale.training_rows,
        learning_rate=0.05,
        seed=seed,
    )


def _model_cell(
    cell: tuple[int, ReplayDB, ExperimentScale, int]
) -> Table2Row:
    """Train and score one Table-I architecture on shared telemetry."""
    model_number, db, scale, seed = cell
    engine = DRLEngine(table_config(model_number, scale, seed))
    report, predict_ms = train_and_time(engine, db)
    return Table2Row(
        model_number=model_number,
        diverged=report.diverged,
        mare=report.test_mare,
        mare_std=report.test_mare_std,
        train_seconds=report.train_seconds,
        predict_ms=predict_ms,
    )


def run_table2(
    *, scale: ExperimentScale, seed: int, workers: int
) -> Table2Result:
    """Regenerate Table II, one row per model of ``MODEL_NUMBERS``.

    One cell per architecture through
    :func:`repro.experiments.parallel.run_cells`: the shared people-mount
    telemetry is collected once and, with ``workers > 1``, shipped
    (pickled) to each worker.  Training is deterministic per ``(model,
    telemetry, scale, seed)``, so only the wall-clock timing columns
    depend on the worker count.
    """
    db = collect_mount_telemetry("people", scale.training_rows, seed=seed)
    cells = [(number, db, scale, seed) for number in MODEL_NUMBERS]
    return Table2Result(run_cells(_model_cell, cells, workers=workers))
