"""The section VIII overhead study.

"the prediction overhead of our selected neural network was at most 53.7ms
and the training overhead was on average 25.3s when the neural network was
trained using six features. ... with 13 input performance metrics selected
from the CERN EOS logs, our neural network takes 23.1s to train and 48.2ms
to predict ... Overall transferring data from the target system to
Geomancy's dataset takes around 3ms on average."

This experiment measures the same three overheads on our substrate: model-1
training and prediction cost with the Z = 6 live features (Bluesky
telemetry) and with the Z = 13 EOS feature set (synthetic EOS trace), on
Table II's protocol; then one traced facade run at the same scale, whose
telemetry link accounts the transfer latency per batch it carried and
whose layer recorder splits the live loop's cost per layer, per decision and per
access.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.core.config import GeomancyConfig
from repro.core.engine import DRLEngine
from repro.experiments.facade import Exports, FacadeRun, run_facade
from repro.experiments.harness import make_experiment_config
from repro.experiments.reporting import ascii_table
from repro.experiments.spec import ExperimentScale
from repro.experiments.table2_comparison import (
    collect_mount_telemetry,
    train_and_time,
)
from repro.features.schema import EOS_MODEL_FEATURES
from repro.replaydb.db import ReplayDB
from repro.workloads.eos import EOSTraceSynthesizer


@dataclass
class OverheadRow:
    """One configuration's measured overheads."""

    label: str
    z: int
    train_seconds: float
    predict_ms: float


@dataclass
class OverheadResult:
    rows: list[OverheadRow]
    transfer_ms_per_batch: float
    #: the traced facade run the transfer row and layer table come from
    run: FacadeRun

    def to_text(self) -> str:
        table = ascii_table(
            ["configuration", "Z", "training (s)", "prediction (ms)"],
            [
                (row.label, row.z, f"{row.train_seconds:.2f}",
                 f"{row.predict_ms:.3f}")
                for row in self.rows
            ],
            title="Overhead study (section VIII)",
        )
        return (
            f"{table}\n"
            f"telemetry transfer: {self.transfer_ms_per_batch:.1f} ms per batch"
            f"\n\n{self.run.trace_text()}"
        )


def run_overhead_study(
    *, scale: ExperimentScale, seed: int
) -> OverheadResult:
    """Measure training/prediction overheads, then trace one facade run."""
    rows = scale.training_rows
    live_db = collect_mount_telemetry("people", rows, seed=seed)
    live_engine = DRLEngine(
        GeomancyConfig(epochs=scale.epochs, training_rows=rows, seed=seed)
    )
    live_report, live_predict = train_and_time(live_engine, live_db)

    eos_db = ReplayDB()
    eos_db.insert_accesses(EOSTraceSynthesizer(seed=seed).records(rows))
    eos_engine = DRLEngine(
        GeomancyConfig(
            features=EOS_MODEL_FEATURES,
            epochs=scale.epochs,
            training_rows=rows,
            learning_rate=0.05,
            seed=seed,
        )
    )
    eos_report, eos_predict = train_and_time(eos_engine, eos_db)

    with tempfile.TemporaryDirectory() as directory:
        run = run_facade(
            make_experiment_config(scale, seed=seed), scale=scale, seed=seed,
            exports=Exports(trace_path=Path(directory) / "trace.json"),
        )
    telemetry = run.geo.telemetry

    return OverheadResult(
        rows=[
            OverheadRow(
                "live (Bluesky telemetry, model 1)",
                live_engine.config.z, live_report.train_seconds, live_predict,
            ),
            OverheadRow(
                "EOS trace (13 features, model 1)",
                eos_engine.config.z, eos_report.train_seconds, eos_predict,
            ),
        ],
        transfer_ms_per_batch=(
            telemetry.total_latency_s / telemetry.messages_sent * 1000.0
        ),
        run=run,
    )
