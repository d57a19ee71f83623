"""Tests for the Table I / II / III experiment harnesses (small scale)."""

import dataclasses

import pytest

from repro.experiments import table2_comparison, table3_permount
from repro.experiments.spec import TEST_SCALE
from repro.experiments.table1_zoo import run_table1
from repro.experiments.table2_comparison import (
    Table2Row,
    collect_mount_telemetry,
    run_table2,
)
from repro.experiments.table3_permount import run_table3


def small(epochs: int):
    return dataclasses.replace(TEST_SCALE, training_rows=700, epochs=epochs)


class TestTable1:
    def test_23_rows(self):
        rows = run_table1().rows
        assert len(rows) == 23
        assert rows[0][0] == 1

    def test_model1_description(self):
        rows = dict(run_table1().rows)
        assert rows[1] == (
            "96 (Dense) Relu, 48 (Dense) Relu, 24 (Dense) Relu, "
            "1 (Dense) Linear"
        )

    def test_text_contains_all_models(self):
        text = run_table1().to_text()
        for number in range(1, 24):
            assert f"Model {number}" in text


@pytest.fixture(scope="module")
def telemetry():
    return collect_mount_telemetry("people", 700, seed=0)


class TestTable2:
    def test_subset_evaluation(self, monkeypatch):
        monkeypatch.setattr(table2_comparison, "MODEL_NUMBERS", (1, 11))
        rows = run_table2(scale=small(5), seed=0, workers=1).rows
        assert [r.model_number for r in rows] == [1, 11]
        for row in rows:
            assert row.train_seconds > 0
            assert row.predict_ms > 0

    def test_error_cell_formats(self):
        ok = Table2Row(1, False, 18.88, 16.92, 25.0, 55.0)
        bad = Table2Row(2, True, 0.0, 0.0, 24.0, 49.0)
        assert "±" in ok.error_cell()
        assert bad.error_cell() == "Diverged"

    def test_recurrent_model_evaluates(self, monkeypatch):
        monkeypatch.setattr(table2_comparison, "MODEL_NUMBERS", (14,))
        rows = run_table2(scale=small(3), seed=0, workers=1).rows
        assert rows[0].model_number == 14

    def test_text_rendering(self, monkeypatch):
        monkeypatch.setattr(table2_comparison, "MODEL_NUMBERS", (1,))
        text = run_table2(scale=small(3), seed=0, workers=1).to_text()
        assert "Table II" in text and "Prediction time" in text

    def test_telemetry_is_single_mount(self, telemetry):
        assert telemetry.devices() == ["people"]
        assert telemetry.access_count() >= 700


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                table3_permount, "BLUESKY_DEVICE_NAMES", ("USBtmp", "file0")
            )
            return run_table3(scale=small(8), seed=0)

    def test_one_row_per_mount(self, result):
        assert [r.mount for r in result.rows] == ["USBtmp", "file0"]

    def test_errors_positive(self, result):
        for row in result.rows:
            assert row.mare > 0

    def test_accuracy_complement(self, result):
        for row in result.rows:
            assert row.accuracy_percent == pytest.approx(
                max(0.0, 100.0 - row.mare)
            )

    def test_average_accuracy(self, result):
        avg = result.average_accuracy()
        assert 0.0 <= avg <= 100.0

    def test_text_rendering(self, result):
        text = result.to_text()
        assert "Table III" in text and "average accuracy" in text
