"""Tests for the Table I / II / III experiment harnesses (small scale)."""

import pytest

from repro.experiments import table2_comparison, table3_permount
from repro.experiments.table1_zoo import table1_rows, table1_text
from repro.experiments.table2_comparison import (
    Table2Row,
    collect_mount_telemetry,
    run_table2,
    table2_text,
)
from repro.experiments.table3_permount import (
    average_accuracy,
    run_table3,
    table3_text,
)


class TestTable1:
    def test_23_rows(self):
        rows = table1_rows()
        assert len(rows) == 23
        assert rows[0][0] == 1

    def test_model1_description(self):
        rows = dict(table1_rows(z=6))
        assert rows[1] == (
            "96 (Dense) Relu, 48 (Dense) Relu, 24 (Dense) Relu, "
            "1 (Dense) Linear"
        )

    def test_text_contains_all_models(self):
        text = table1_text()
        for number in range(1, 24):
            assert f"Model {number}" in text


@pytest.fixture(scope="module")
def telemetry():
    return collect_mount_telemetry("people", 700, seed=0)


class TestTable2:
    def test_subset_evaluation(self, telemetry, monkeypatch):
        monkeypatch.setattr(table2_comparison, "MODEL_NUMBERS", (1, 11))
        rows = run_table2(epochs=5, records=telemetry)
        assert [r.model_number for r in rows] == [1, 11]
        for row in rows:
            assert row.train_seconds > 0
            assert row.predict_ms > 0

    def test_error_cell_formats(self):
        ok = Table2Row(1, False, 18.88, 16.92, 25.0, 55.0)
        bad = Table2Row(2, True, 0.0, 0.0, 24.0, 49.0)
        assert "±" in ok.error_cell()
        assert bad.error_cell() == "Diverged"

    def test_recurrent_model_evaluates(self, telemetry, monkeypatch):
        monkeypatch.setattr(table2_comparison, "MODEL_NUMBERS", (14,))
        rows = run_table2(epochs=3, records=telemetry)
        assert rows[0].model_number == 14

    def test_text_rendering(self, telemetry, monkeypatch):
        monkeypatch.setattr(table2_comparison, "MODEL_NUMBERS", (1,))
        rows = run_table2(epochs=3, records=telemetry)
        text = table2_text(rows)
        assert "Table II" in text and "Prediction time" in text

    def test_telemetry_is_single_mount(self, telemetry):
        assert {r.device for r in telemetry} == {"people"}


class TestTable3:
    @pytest.fixture(scope="class")
    def rows(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                table3_permount, "BLUESKY_DEVICE_NAMES", ("USBtmp", "file0")
            )
            return run_table3(rows=700, epochs=8, seed=0)

    def test_one_row_per_mount(self, rows):
        assert [r.mount for r in rows] == ["USBtmp", "file0"]

    def test_errors_positive(self, rows):
        for row in rows:
            assert row.mare > 0

    def test_accuracy_complement(self, rows):
        for row in rows:
            assert row.accuracy_percent == pytest.approx(
                max(0.0, 100.0 - row.mare)
            )

    def test_average_accuracy(self, rows):
        avg = average_accuracy(rows)
        assert 0.0 <= avg <= 100.0

    def test_text_rendering(self, rows):
        text = table3_text(rows)
        assert "Table III" in text and "average accuracy" in text
