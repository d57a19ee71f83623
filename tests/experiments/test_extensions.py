"""Tests for Fig. 5a across seeds and the overhead study."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.fig5_comparison import Fig5aResult, Fig5Result, run_fig5a
from repro.experiments.harness import GEOMANCY, PolicyRunResult
from repro.experiments.overhead import run_overhead_study
from repro.experiments.spec import ExperimentScale

TINY = ExperimentScale(
    name="tiny", warmup_accesses=150, runs=5, update_every=3,
    training_rows=150, epochs=3, trace_rows=1000,
)


def _panel(geomancy: float, **baselines: float) -> Fig5Result:
    """A panel whose policies each measured one access at the given GB/s."""
    return Fig5Result(results={
        name: PolicyRunResult(name, throughput_gbps=[gbps])
        for name, gbps in {GEOMANCY: geomancy, **baselines}.items()
    })


class TestRobustness:
    """Fig. 5a across environment seeds (``repro fig5a --seeds``)."""

    def test_seed_outcome_gain(self):
        result = Fig5aResult(seeds=(0,), panels=[_panel(2.0, LFU=1.6)])
        assert result.gains_percent() == pytest.approx([25.0])
        assert result.win_rate == 1.0

    def test_summary_statistics(self):
        result = Fig5aResult(seeds=(0, 1, 2), panels=[
            _panel(2.0, LFU=1.6, MRU=1.0),
            _panel(1.0, MRU=1.25),
            _panel(1.5, LFU=1.0),
        ])
        assert result.gains_percent() == pytest.approx([25.0, -20.0, 50.0])
        assert result.win_rate == pytest.approx(2 / 3)
        assert result.median_gain_percent == pytest.approx(25.0)
        lo, hi = result.gain_range
        assert lo == pytest.approx(-20.0)
        assert hi == pytest.approx(50.0)
        text = result.to_text()
        assert "LFU (1.60)" in text and "MRU (1.25)" in text
        assert text.endswith(
            "win rate 67%, median gain +25.0% (range -20.0% .. +50.0%)"
        )

    def test_one_seed_prints_its_panel(self):
        panel = _panel(2.0, LFU=1.6)
        assert Fig5aResult(seeds=(4,), panels=[panel]).to_text() == (
            panel.to_text()
        )

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError, match="at least one seed"):
            run_fig5a(seeds=(), scale=TINY, workers=1)

    def test_runs_across_seeds(self):
        result = run_fig5a(seeds=(0, 1), scale=TINY, workers=1)
        assert result.seeds == (0, 1) and len(result.panels) == 2
        text = result.to_text()
        assert "win rate" in text and "median gain" in text
        assert text.startswith("Fig. 5a robustness across environment seeds")


class TestOverheadStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return run_overhead_study(
            scale=ExperimentScale(
                name="overhead", warmup_accesses=150, runs=5,
                update_every=3, training_rows=400, epochs=4, trace_rows=1000,
            ),
            seed=0,
        )

    def test_both_feature_sets_measured(self, study):
        assert [row.z for row in study.rows] == [6, 13]

    def test_costs_positive(self, study):
        for row in study.rows:
            assert row.train_seconds > 0
            assert row.predict_ms > 0

    def test_transfer_matches_modelled_latency(self, study):
        telemetry = study.run.geo.telemetry
        assert telemetry.messages_sent > 0
        # The transport models the paper's ~3 ms per batch, and the row
        # charges the telemetry link's batches alone.
        assert study.transfer_ms_per_batch == pytest.approx(3.0)

    def test_layer_rows_add_up_to_the_traced_wall(self, study):
        trace = study.run.trace
        assert trace.wall_s > 0
        assert sum(row[2] for row in trace.layer_rows()) == pytest.approx(
            trace.wall_s, abs=1e-9
        )

    def test_costs_per_decision_and_per_access(self, study):
        run = study.run
        decisions, accesses = run.geo.decisions, run.accesses
        assert decisions > 0 and accesses > 0
        lines = study.to_text().splitlines()
        for layer, _, seconds in run.trace.layer_rows():
            line = next(row for row in lines if row.startswith(f"{layer} "))
            assert [cell.strip() for cell in line.split("|")[4:]] == [
                f"{1e3 * seconds / decisions:.3f}",
                f"{1e6 * seconds / accesses:.3f}",
            ]

    def test_text_rendering(self, study):
        text = study.to_text()
        assert "Overhead study" in text and "per batch" in text
        # the layer table is the one ``run --trace`` prints
        assert study.run.trace_text() in text
