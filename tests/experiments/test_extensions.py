"""Tests for the robustness and overhead experiment extensions."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.overhead import run_overhead_study
from repro.experiments.robustness import (
    RobustnessResult,
    SeedOutcome,
    run_robustness,
)
from repro.experiments.spec import ExperimentScale

TINY = ExperimentScale(
    name="tiny", warmup_accesses=150, runs=5, update_every=3,
    training_rows=150, epochs=3, trace_rows=1000,
)


class TestRobustness:
    def test_seed_outcome_gain(self):
        outcome = SeedOutcome(0, 2.0, "LFU", 1.6)
        assert outcome.gain_percent == pytest.approx(25.0)
        assert outcome.won

    def test_summary_statistics(self):
        result = RobustnessResult(
            outcomes=[
                SeedOutcome(0, 2.0, "LFU", 1.6),
                SeedOutcome(1, 1.0, "MRU", 1.25),
                SeedOutcome(2, 1.5, "LFU", 1.0),
            ]
        )
        assert result.win_rate == pytest.approx(2 / 3)
        assert result.median_gain_percent == pytest.approx(25.0)
        lo, hi = result.gain_range
        assert lo == pytest.approx(-20.0)
        assert hi == pytest.approx(50.0)

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            RobustnessResult(outcomes=[])
        with pytest.raises(ExperimentError):
            run_robustness(seeds=())

    def test_runs_across_seeds(self):
        result = run_robustness(seeds=(0, 1), scale=TINY)
        assert [o.seed for o in result.outcomes] == [0, 1]
        text = result.to_text()
        assert "win rate" in text and "median gain" in text


class TestOverheadStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return run_overhead_study(rows=400, epochs=4, seed=0)

    def test_both_feature_sets_measured(self, study):
        assert [row.z for row in study.rows] == [6, 13]

    def test_costs_positive(self, study):
        for row in study.rows:
            assert row.train_seconds > 0
            assert row.predict_ms > 0

    def test_transfer_matches_modelled_latency(self, study):
        # The transport models the paper's ~3 ms per batch.
        assert study.transfer_ms_per_batch == pytest.approx(3.0, abs=0.5)

    def test_text_rendering(self, study):
        text = study.to_text()
        assert "Overhead study" in text and "per batch" in text
