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
from repro.core.engine import DRLEngine
from repro.experiments.harness import WORKLOAD_SEED
from repro.experiments.parallel import run_cells
from repro.experiments.reporting import ascii_table, mean_std
from repro.nn.model_zoo import MODEL_NUMBERS
from repro.replaydb.db import ReplayDB
from repro.replaydb.records import AccessRecord
from repro.simulation.bluesky import make_bluesky_cluster
from repro.workloads.belle2 import Belle2Workload
from repro.workloads.files import belle2_file_population
from repro.workloads.runner import WorkloadRunner

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


def collect_mount_telemetry(
    mount: str, rows: int, *, seed: int = 0
) -> list[AccessRecord]:
    """BELLE II telemetry with every file pinned to one mount."""
    cluster = make_bluesky_cluster(seed=seed)
    files = belle2_file_population(seed=seed)
    db = ReplayDB()
    runner = WorkloadRunner(
        cluster, Belle2Workload(files, seed=WORKLOAD_SEED), db
    )
    runner.ensure_files_placed({f.fid: mount for f in files})
    runner.warm_up(rows)
    return db.recent_accesses(rows)


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


def table_config(
    model_number: int, n_records: int, *, epochs: int = 200, seed: int = 0
) -> GeomancyConfig:
    """The shared Table II/III training configuration."""
    return GeomancyConfig(
        model_number=model_number,
        features=TABLE_FEATURES,
        smoothing_window=TABLE_SMOOTHING_WINDOW,
        epochs=epochs,
        training_rows=max(n_records, 10),
        learning_rate=0.05,
        seed=seed,
    )


def evaluate_model(
    model_number: int,
    records: list[AccessRecord],
    *,
    epochs: int = 200,
    seed: int = 0,
) -> Table2Row:
    """Train and score one Table-I architecture on shared telemetry."""
    config = table_config(model_number, len(records), epochs=epochs, seed=seed)
    engine = DRLEngine(config)
    report = engine.train_on_records(records)
    # Prediction time: one probe-sized forward pass (six rows, one per
    # candidate location), averaged over repeats.
    batch = engine.pipeline.transform_features(records[-6:])
    repeats = 20
    start = time.perf_counter()
    for _ in range(repeats):
        engine.model.predict(batch)
    predict_ms = (time.perf_counter() - start) / repeats * 1000.0
    return Table2Row(
        model_number=model_number,
        diverged=report.diverged,
        mare=report.test_mare,
        mare_std=report.test_mare_std,
        train_seconds=report.train_seconds,
        predict_ms=predict_ms,
    )


def _model_cell(cell: tuple[int, list[AccessRecord], int, int]) -> Table2Row:
    """Train and score one Table-I architecture on shared telemetry."""
    model_number, records, epochs, seed = cell
    return evaluate_model(model_number, records, epochs=epochs, seed=seed)


def run_table2(
    *,
    rows: int = 12_000,
    epochs: int = 200,
    seed: int = 0,
    records: list[AccessRecord] | None = None,
    workers: int = 1,
) -> list[Table2Row]:
    """Regenerate Table II, one row per model of ``MODEL_NUMBERS``.

    One cell per architecture through
    :func:`repro.experiments.parallel.run_cells`: the shared people-mount
    telemetry is collected once and, with ``workers > 1``, shipped
    (pickled) to each worker.  Training is deterministic per ``(model,
    records, epochs, seed)``, so only the wall-clock timing columns
    depend on the worker count.
    """
    if records is None:
        records = collect_mount_telemetry("people", rows, seed=seed)
    cells = [(number, records, epochs, seed) for number in MODEL_NUMBERS]
    return run_cells(_model_cell, cells, workers=workers)


def table2_text(rows: list[Table2Row]) -> str:
    body = [
        (
            row.model_number,
            row.error_cell(),
            f"{row.train_seconds:.3f}",
            f"{row.predict_ms:.3f}",
        )
        for row in rows
    ]
    return ascii_table(
        ["Model", "Mean abs. relative error (%)", "Training time (s)",
         "Prediction time (ms)"],
        body,
        title="Table II -- model comparison on the people mount",
    )
