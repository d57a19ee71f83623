"""Table III: model 1's prediction error on each Bluesky mount.

"Table III lists the prediction errors for model 1 using each available
storage point on the Bluesky system. ... the model can correctly capture
the normal rise and fall in I/O throughput on individual devices with
reasonably high accuracy."
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.engine import DRLEngine
from repro.experiments.reporting import ascii_table, mean_std
from repro.experiments.spec import ExperimentScale
from repro.experiments.table2_comparison import (
    collect_mount_telemetry,
    table_config,
)
from repro.simulation.bluesky import BLUESKY_DEVICE_NAMES

#: the architecture Table III trains on every mount (the paper's pick)
MODEL_NUMBER = 1


@dataclass
class Table3Row:
    """One model's error on one mount."""

    mount: str
    mare: float
    mare_std: float
    diverged: bool

    @property
    def accuracy_percent(self) -> float:
        return max(0.0, 100.0 - self.mare)


@dataclass
class Table3Result:
    """One row per Bluesky mount."""

    rows: list[Table3Row]

    def average_accuracy(self) -> float:
        """The paper's "average accuracy of about 81.12% over all the
        mounts"."""
        return float(np.mean([row.accuracy_percent for row in self.rows]))

    def to_text(self) -> str:
        body = [
            (
                row.mount,
                "Diverged" if row.diverged
                else mean_std(row.mare, row.mare_std),
            )
            for row in self.rows
        ]
        table = ascii_table(
            ["Storage point", "Absolute relative error (%)"],
            body,
            title="Table III -- model 1 accuracy per Bluesky storage point",
        )
        return f"{table}\naverage accuracy: {self.average_accuracy():.2f}%"


def run_table3(
    *, scale: ExperimentScale, seed: int, model_number: int = MODEL_NUMBER
) -> Table3Result:
    """Regenerate Table III: one training of ``model_number`` per mount."""
    rows = []
    for mount in BLUESKY_DEVICE_NAMES:
        db = collect_mount_telemetry(mount, scale.training_rows, seed=seed)
        report = DRLEngine(table_config(model_number, scale, seed)).train(db)
        rows.append(
            Table3Row(
                mount=mount,
                mare=report.test_mare,
                mare_std=report.test_mare_std,
                diverged=report.diverged,
            )
        )
    return Table3Result(rows)
