"""Tests for ASCII tables, series bucketing and sparklines."""

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments import reporting
from repro.experiments.reporting import (
    ascii_table,
    bucket_series,
    mean_std,
    sparkline,
)


class TestAsciiTable:
    def test_basic_layout(self):
        text = ascii_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "-+-" in lines[1]
        assert len(lines) == 4

    def test_title(self):
        text = ascii_table(["x"], [["1"]], title="My table")
        assert text.splitlines()[0] == "My table"

    def test_column_alignment(self):
        text = ascii_table(["col"], [["aaaa"], ["b"]])
        lines = text.splitlines()
        assert len(lines[2]) == len(lines[3])

    def test_empty_headers_rejected(self):
        with pytest.raises(ExperimentError):
            ascii_table([], [])

    def test_mismatched_row_rejected(self):
        with pytest.raises(ExperimentError):
            ascii_table(["a", "b"], [["only one"]])

    def test_non_string_cells_coerced(self):
        text = ascii_table(["n"], [[42]])
        assert "42" in text


class TestMeanStd:
    def test_format(self):
        assert mean_std(4.98, 1.23) == "4.98 ± 1.23"

    def test_digits(self, monkeypatch):
        monkeypatch.setattr(reporting, "MEAN_STD_DIGITS", 1)
        assert mean_std(1.0, 2.0) == "1.0 ± 2.0"


class TestBucketSeries:
    def test_full_buckets(self):
        edges, means = bucket_series([1.0, 2.0, 3.0, 4.0], bucket=2)
        np.testing.assert_array_equal(edges, [2, 4])
        np.testing.assert_allclose(means, [1.5, 3.5])

    def test_partial_final_bucket(self):
        edges, means = bucket_series([1.0, 2.0, 3.0], bucket=2)
        np.testing.assert_array_equal(edges, [2, 3])
        assert means[1] == pytest.approx(2.5)  # trailing window of size 2

    def test_empty(self):
        edges, means = bucket_series([], bucket=5)
        assert edges.size == 0 and means.size == 0

    def test_invalid_bucket(self):
        with pytest.raises(ExperimentError):
            bucket_series([1.0], bucket=0)

    def test_bucket_larger_than_series(self):
        edges, means = bucket_series([1.0, 3.0], bucket=10)
        np.testing.assert_array_equal(edges, [2])
        assert means[0] == pytest.approx(2.0)


class TestSparkline:
    def test_length_capped(self):
        line = sparkline(np.arange(200.0), width=60)
        assert len(line) == 60

    def test_monotone_series(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert line[0] == "▁" and line[-1] == "█"

    def test_constant_series(self):
        assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"

    def test_empty(self):
        assert sparkline([]) == ""


class TestMovementBars:
    def test_bars_positioned_by_access_number(self, monkeypatch):
        monkeypatch.setattr(reporting, "BAR_HEIGHT", 2)
        from repro.experiments.reporting import movement_bars

        text = movement_bars([(0, 5)], 100, width=10)
        lines = text.splitlines()
        # the single burst lands in the first column of every bar row
        assert lines[0][0] == "█"
        assert lines[1][0] == "█"
        assert "peak: 5" in lines[-1]

    def test_taller_bars_for_bigger_moves(self, monkeypatch):
        monkeypatch.setattr(reporting, "BAR_HEIGHT", 4)
        from repro.experiments.reporting import movement_bars

        text = movement_bars([(0, 2), (50, 8)], 100, width=10)
        lines = text.splitlines()
        top_row = lines[0]
        # Only the 8-file burst reaches the top row.
        assert top_row.count("█") == 1

    def test_no_movements(self):
        from repro.experiments.reporting import movement_bars

        assert movement_bars([], 100) == "(no file movements)"

    def test_invalid_args(self):
        from repro.experiments.reporting import movement_bars
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            movement_bars([], 0)
        with pytest.raises(ExperimentError):
            movement_bars([(-1, 2)], 100)
        with pytest.raises(ExperimentError):
            movement_bars([], 100, width=0)

    def test_out_of_range_accesses_clamped_to_last_column(self, monkeypatch):
        monkeypatch.setattr(reporting, "BAR_HEIGHT", 1)
        from repro.experiments.reporting import movement_bars

        text = movement_bars([(500, 3)], 100, width=10)
        assert text.splitlines()[0][-1] == "█"
