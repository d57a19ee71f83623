"""Tests for Fig. 5 result rendering (series + movement bars)."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.fig5_comparison import GEOMANCY, Fig5Result
from repro.experiments.harness import PolicyRunResult


def make_result(with_moves=True):
    geomancy = PolicyRunResult(
        GEOMANCY,
        throughput_gbps=[2.0] * 100,
        movements=[(20, 5), (60, 14)] if with_moves else [],
    )
    baseline = PolicyRunResult("LFU", throughput_gbps=[1.0] * 100)
    return Fig5Result(results={GEOMANCY: geomancy, "LFU": baseline})


class TestToText:
    def test_policies_sorted_by_throughput(self):
        text = make_result().to_text()
        lines = text.splitlines()
        geomancy_line = next(i for i, l in enumerate(lines) if GEOMANCY in l)
        lfu_line = next(i for i, l in enumerate(lines) if "LFU" in l)
        assert geomancy_line < lfu_line

    def test_movement_bars_rendered(self):
        text = make_result().to_text()
        assert "Geomancy movements:" in text
        assert "peak: 14 files" in text

    def test_no_bars_without_movements(self):
        text = make_result(with_moves=False).to_text()
        assert "Geomancy movements:" not in text

    def test_one_gain_line_per_baseline(self):
        result = make_result()
        result.results["MRU"] = PolicyRunResult(
            "MRU", throughput_gbps=[0.5] * 100
        )
        gains = [
            line for line in result.to_text().splitlines()
            if line.startswith("Geomancy gain over ")
        ]
        assert gains == [
            "Geomancy gain over LFU: +100.0%",
            "Geomancy gain over MRU: +300.0%",
        ]

    def test_gain_and_best_baseline(self):
        result = make_result()
        assert result.best_baseline() == "LFU"
        assert result.gain_percent("LFU") == pytest.approx(100.0)

    def test_gain_over_zero_throughput_rejected(self):
        result = Fig5Result(
            results={
                GEOMANCY: PolicyRunResult(GEOMANCY, throughput_gbps=[1.0]),
                "dead": PolicyRunResult("dead", throughput_gbps=[0.0]),
            }
        )
        with pytest.raises(ExperimentError):
            result.gain_percent("dead")
