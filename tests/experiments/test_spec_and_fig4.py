"""Tests for experiment scales and the Fig. 4 experiment."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.experiments.fig4_correlation import (
    CHOSEN_FIELDS,
    DEFERRED_FIELDS,
    DROPPED_NEGATIVE_FIELDS,
    run_fig4,
)
from repro.experiments.spec import (
    BENCH_SCALE,
    PAPER_SCALE,
    TEST_SCALE,
    ExperimentScale,
)


class TestScales:
    def test_presets_ordered_by_size(self):
        assert (
            TEST_SCALE.warmup_accesses
            < BENCH_SCALE.warmup_accesses
            < PAPER_SCALE.warmup_accesses
        )
        assert TEST_SCALE.runs < BENCH_SCALE.runs <= PAPER_SCALE.runs

    def test_paper_scale_matches_paper(self):
        assert PAPER_SCALE.warmup_accesses == 10_000
        assert PAPER_SCALE.update_every == 5
        assert PAPER_SCALE.training_rows == 12_000
        assert PAPER_SCALE.epochs == 200
        assert PAPER_SCALE.runs == 300

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"warmup_accesses": 0},
            {"runs": 0},
            {"update_every": 0},
            {"training_rows": 5},
            {"epochs": 0},
            {"trace_rows": 10},
        ],
    )
    def test_invalid_scales_rejected(self, kwargs):
        base = dict(
            name="x", warmup_accesses=10, runs=1, update_every=1,
            training_rows=100, epochs=1, trace_rows=1000,
        )
        base.update(kwargs)
        with pytest.raises(ConfigurationError):
            ExperimentScale(**base)


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig4(
            scale=dataclasses.replace(TEST_SCALE, trace_rows=3000), seed=4
        )

    def test_chosen_fields_are_papers(self, result):
        assert set(result.report.chosen) == set(CHOSEN_FIELDS)

    def test_chosen_fields_not_negative(self, result):
        for name in result.report.chosen:
            assert result.report.sign_of(name) >= 0, name

    def test_dropped_fields_strongly_negative(self, result):
        for name in DROPPED_NEGATIVE_FIELDS:
            assert result.report.correlations[name] < -0.3, name

    def test_deferred_fields_exist_in_report(self, result):
        for name in DEFERRED_FIELDS:
            assert name in result.report.correlations

    def test_rb_wb_positive(self, result):
        assert result.report.sign_of("rb") == 1
        assert result.report.sign_of("wb") == 1

    def test_fid_uncorrelated(self, result):
        assert result.report.sign_of("fid") == 0

    def test_text_rendering(self, result):
        text = result.to_text()
        assert "Fig. 4" in text
        assert "rb" in text and "chosen" in text
