"""``benchmarks/quality.py``'s paired statistics, fed fake records.

The ruler a decision-changing change is graded on: per-seed differences
of the simulated results, their median and quartiles, wins/ties/losses
and the exact sign test.  No child process runs here.
"""

from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture
def quality(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import quality

    return quality


def record(gain, speed, moves_ok=10, moves_failed=0, diverged=0, acted=9):
    return {
        "sim_gain_pct": gain, "sim_speed_vs_static_pct": speed,
        "failures": [],
        "facts": {
            "moves_ok": moves_ok, "moves_failed": moves_failed,
            "epochs_acted": acted, "epochs_diverged": diverged,
        },
    }


class TestPairedDifferences:
    def test_a_a_is_zero_on_every_seed(self, quality):
        values = [4.9, -30.0, 9.1, 0.0, 2.5]
        d = quality.paired_differences(values, list(values))
        assert d["diffs"] == [0.0] * 5
        assert (d["median"], d["q1"], d["q3"]) == (0.0, 0.0, 0.0)
        assert (d["wins"], d["ties"], d["losses"]) == (0, 5, 0)
        assert d["p"] == 1.0

    def test_median_quartiles_and_signs(self, quality):
        parent = [0.0] * 10
        change = [-3.0, -1.0, 0.0, 1.0, 2.0, 2.0, 3.0, 4.0, 5.0, 8.0]
        d = quality.paired_differences(parent, change)
        assert d["median"] == 2.0
        assert d["q1"] == pytest.approx(-0.25)  # exclusive quartiles
        assert d["q3"] == pytest.approx(4.25)
        assert (d["wins"], d["ties"], d["losses"]) == (7, 1, 2)
        # two-sided: 2 * P(X <= 2), X ~ Binomial(9, 1/2) = 2 * 46 / 512
        assert d["p"] == pytest.approx(92 / 512)

    def test_all_wins_sign_test(self, quality):
        d = quality.paired_differences([0.0] * 10, [1.0] * 10)
        assert d["p"] == pytest.approx(2 / 1024)

    def test_unpaired_lengths_rejected(self, quality):
        with pytest.raises(ValueError):
            quality.paired_differences([1.0, 2.0], [1.0])


class TestReport:
    def test_tables_and_fact_sums(self, quality):
        parent = [record(1.0, 100.0, 5, 1, 0), record(2.0, 101.0, 7, 0, 1)]
        change = [record(3.0, 99.0, 6, 0, 0, 8), record(2.0, 104.0, 9, 0, 0)]
        text = quality.report("wide_probe", [0, 3], parent, change)
        assert text.startswith("### wide_probe: 2 paired seeds")
        assert "| 0 | 1.00 | 3.00 | 100.00 | 99.00 | 5/1/9/0 | 6/0/8/0 |" in text
        # exclusive quartiles of two differences reach past both
        assert "| sim_gain_pct (pp) | +1.00 [-0.50 .. +2.50] | 1/1/0 |" in text
        assert (
            "| sim_speed_vs_static_pct (pp) | +1.00 [-2.00 .. +4.00] | 1/0/1 |"
        ) in text
        assert (
            "moves_ok 12 -> 15, moves_failed 1 -> 0, epochs_acted 18 -> 17, "
            "epochs_diverged 1 -> 0"
        ) in text

    def test_seed_ranges(self, quality):
        assert quality.parse_seeds(["0..3", "7", "9..9"]) == [0, 1, 2, 3, 7, 9]
