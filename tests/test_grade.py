"""``benchmarks/grade.py``: its seed schedule, sides, verdicts, paired
statistics and report, fed fake records.  No child process runs here."""

from pathlib import Path

import pytest

from repro.experiments.harness import PolicyRunResult

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture
def grade(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "benchmarks"))
    import grade

    return grade


def firsts_by_seed(schedule):
    by_seed = {}
    for seed, parent_first in schedule:
        by_seed.setdefault(seed, []).append(parent_first)
    return by_seed


class TestSchedule:
    @pytest.mark.parametrize("seeds", [[0, 3], [0, 3, 5, 7, 11]])
    def test_each_seed_alternates_its_first_side(self, grade, seeds):
        schedule = grade.pair_schedule(seeds * 4)
        assert [seed for seed, _ in schedule] == seeds * 4
        for firsts in firsts_by_seed(schedule).values():
            assert firsts.count(True) == firsts.count(False) == 2
            assert all(a != b for a, b in zip(firsts, firsts[1:]))

    def test_two_seeds_do_not_pin_the_order(self, grade):
        schedule = grade.pair_schedule([0, 3, 0, 3])
        assert schedule == [(0, True), (3, False), (0, False), (3, True)]

    def test_odd_seed_count_still_alternates_pair_by_pair(self, grade):
        schedule = grade.pair_schedule([0, 3, 5, 7, 11] * 2)
        firsts = [parent_first for _, parent_first in schedule]
        assert firsts == [True, False] * 5

    def test_a_repeated_seed_runs_one_pair_per_listing(self, grade):
        seeds = grade.parse_seeds(["4", "4", "1..2", "4"])
        assert seeds == [4, 4, 1, 2, 4]
        assert grade.pair_schedule(seeds) == [
            (4, True), (4, False), (1, False), (2, True), (4, True),
        ]

    def test_seed_ranges(self, grade):
        assert grade.parse_seeds(["0..3", "7", "9..9"]) == [0, 1, 2, 3, 7, 9]


class TestSides:
    def test_path_and_arm(self, grade, tmp_path):
        assert grade.parse_side(str(tmp_path)) == (tmp_path, None)
        assert grade.parse_side(f"{tmp_path}@adjust=identity") == (
            tmp_path, "adjust=identity"
        )
        config, scale, patch = grade.arm_row("smoothing_window=1")
        assert (config, scale, patch) == ({"smoothing_window": 1}, {}, None)

    def test_an_unknown_arm_fails_before_any_child(self, grade, monkeypatch):
        started = []
        monkeypatch.setattr(grade, "run_child", lambda *a: started.append(a))
        with pytest.raises(SystemExit) as exit_:
            grade.main([str(REPO), f"{REPO}@no-such-arm",
                        "--workload", "fig5", "--seeds", "0"])
        assert exit_.value.code == 2 and started == []

    def test_a_scale_arm_on_an_e2e_cell_fails_before_any_child(
        self, grade, monkeypatch
    ):
        started = []
        monkeypatch.setattr(grade, "run_child", lambda *a: started.append(a))
        with pytest.raises(SystemExit):
            grade.main([str(REPO), f"{REPO}@update_every=1",
                        "--workload", "bluesky_paper", "--seeds", "0"])
        assert started == []

    def test_a_relative_side_reaches_its_child_resolved(
        self, grade, monkeypatch, capsys
    ):
        # A child runs in its checkout: a path relative to the caller's
        # directory would name something else there.
        still, started = result([1.0] * 4), []

        def fake_child(*args):
            started.append(args)
            return {**grade.fig5_record(still, still, [still], [still]),
                    "vetoes": {"acted": 1}}

        monkeypatch.setattr(grade, "run_child", fake_child)
        monkeypatch.chdir(REPO.parent)
        assert grade.main([REPO.name, f"{REPO.name}@adjust=identity",
                           "--workload", "fig5", "--seeds", "0"]) == 0
        assert started == [(REPO, None, "fig5", 0, 15.0),
                           (REPO, "adjust=identity", "fig5", 0, 15.0)]
        assert capsys.readouterr().out.endswith(
            "fingerprints: IDENTICAL on every pair\n"
            "decision differences: all 0 on every seed\n")


P50 = {"name": "decision_epoch_ms_p50", "better": "lower", "bound": 0.2}


class TestTimeVerdict:
    def test_a_gain_on_every_seed_is_a_gain_across_seed_levels(self, grade):
        # Two seeds whose parent medians sit 9.58 and 11.0 ms apart, as on
        # telemetry_flood with --seeds 0 3: the change wins all ten pairs
        # by about 11 %, far outside each seed's own spread, but the
        # pooled quartiles span both seed levels.
        parent = {0: [9.50, 9.55, 9.58, 9.62, 9.66],
                  3: [10.90, 10.95, 11.00, 11.05, 11.10]}
        change = {0: [8.45, 8.50, 8.52, 8.55, 8.60],
                  3: [9.70, 9.75, 9.78, 9.80, 9.85]}
        seeds = [seed for seed, _ in grade.pair_schedule([0, 3] * 5)]
        parent_left = {seed: iter(runs) for seed, runs in parent.items()}
        change_left = {seed: iter(runs) for seed, runs in change.items()}
        parent_runs = [next(parent_left[seed]) for seed in seeds]
        change_runs = [next(change_left[seed]) for seed in seeds]
        gap, iqr = grade.lead(parent_runs, change_runs, lower=True)
        assert 0 < gap < iqr  # pooled, the gap reads as noise
        result = grade.verdict(P50, parent_runs, change_runs, seeds)
        assert (result["wins"], result["verdict"]) == (10, "gain")
        assert round(result["delta_pct"], 1) == -11.0

    @pytest.mark.parametrize("faster, word", [
        (0.5, "gain"), (0.05, "within bound"),
    ])
    def test_one_seed_keeps_the_pooled_rule(self, grade, faster, word):
        # The change wins every pair by ``faster`` ms; on one seed the
        # per-seed rule is the pooled one: a gain only past the parent's
        # IQR.
        parent = [9.50, 9.60, 9.70, 9.55, 9.65, 9.58, 9.62, 9.52, 9.68, 9.57]
        change = [run - faster for run in parent]
        gap, iqr = grade.lead(parent, change, lower=True)
        assert (gap > iqr) == (word == "gain")
        result = grade.verdict(P50, parent, change, [7] * 10)
        assert (result["wins"], result["verdict"]) == (10, word)


class TestPairedDifferences:
    def test_a_a_is_zero_on_every_seed(self, grade):
        values = [4.9, -30.0, 9.1, 0.0, 2.5]
        d = grade.paired_differences(values, list(values))
        assert d["diffs"] == [0.0] * 5
        assert (d["median"], d["q1"], d["q3"]) == (0.0, 0.0, 0.0)
        assert (d["wins"], d["ties"], d["losses"]) == (0, 5, 0)
        assert d["p"] == 1.0

    def test_median_quartiles_and_signs(self, grade):
        parent = [0.0] * 10
        change = [-3.0, -1.0, 0.0, 1.0, 2.0, 2.0, 3.0, 4.0, 5.0, 8.0]
        d = grade.paired_differences(parent, change)
        assert d["median"] == 2.0
        assert d["q1"] == pytest.approx(-0.25)  # exclusive quartiles
        assert d["q3"] == pytest.approx(4.25)
        assert (d["wins"], d["ties"], d["losses"]) == (7, 1, 2)
        # two-sided: 2 * P(X <= 2), X ~ Binomial(9, 1/2) = 2 * 46 / 512
        assert d["p"] == pytest.approx(92 / 512)

    def test_lower_is_better_swaps_wins_and_losses(self, grade):
        d = grade.paired_differences([1746, 1139, 500], [591, 1139, 600],
                                     lower=True)
        assert (d["wins"], d["ties"], d["losses"]) == (1, 1, 1)
        assert d["diffs"] == [-1155, 0, 100]

    def test_all_wins_sign_test(self, grade):
        d = grade.paired_differences([0.0] * 10, [1.0] * 10)
        assert d["p"] == pytest.approx(2 / 1024)

    def test_unpaired_lengths_rejected(self, grade):
        with pytest.raises(ValueError):
            grade.paired_differences([1.0, 2.0], [1.0])


def result(series, movements=()):
    return PolicyRunResult("cell", list(series), list(movements))


class TestFig5Record:
    def test_ratios_gains_and_first_move(self, grade):
        learner = result([1.0, 1.0, 2.0, 4.0], [(2, 3), (3, 1)])
        file0 = result([2.0, 2.0, 2.0, 4.0])
        record = grade.fig5_record(
            learner, file0, [result([1.0] * 4), result([1.6] * 4)],
            [result([1.25] * 4)],
        )
        assert record["geomancy_gbps"] == 2.0
        assert record["gain_vs_5a_pct"] == pytest.approx(25.0)
        assert record["gain_vs_5b_pct"] == pytest.approx(60.0)
        assert record["file0_ratio"] == pytest.approx(2.0 / 2.5)
        assert record["file0_ratio_last_half"] == pytest.approx(1.0)
        assert record["first_move"] == 2
        assert record["facts"] == {"files_moved": 4, "relayouts": 2}

    def test_a_run_that_never_moved_counts_its_length(self, grade):
        still = result([1.0] * 6)
        record = grade.fig5_record(still, still, [still], [still])
        assert record["first_move"] == 6
        again = grade.fig5_record(still, still, [still], [still])
        assert again["fingerprint"] == record["fingerprint"]
        moved = grade.fig5_record(result([1.0] * 6, [(5, 1)]), still,
                                  [still], [still])
        assert moved["fingerprint"] != record["fingerprint"]


def record(gain, speed, moves_ok=10, moves_failed=0, diverged=0, acted=9,
           vetoes=None):
    return {
        "sim_gain_pct": gain, "sim_speed_vs_static_pct": speed,
        "failures": [], "vetoes": vetoes or {"acted": acted},
        "facts": {
            "moves_ok": moves_ok, "moves_failed": moves_failed,
            "epochs_acted": acted, "epochs_diverged": diverged,
        },
    }


class TestReport:
    def test_tables_and_sums(self, grade):
        parent = [record(1.0, 100.0, 5, 1, 0), record(2.0, 101.0, 7, 0, 1)]
        change = [record(3.0, 99.0, 6, 0, 0, 8, {"acted": 8, "unskilled": 1}),
                  record(2.0, 104.0, 9, 0, 0)]
        text = grade.report("wide_probe", [(0, True), (3, False)],
                            {"parent": parent, "change": change},
                            {"end_to_end": []})
        assert text.startswith("### wide_probe: 2 pairs")
        assert ("| 1 | 0 | parent | 1 | 3 | 100 | 99 | 5/1/9/0; acted:9 | "
                "6/0/8/0; acted:8 unskilled:1 |") in text
        assert "| 2 | 3 | change |" in text
        # exclusive quartiles of two differences reach past both
        assert ("| sim_gain_pct (higher is better) | 1.5 -> 2.5 | +1 "
                "[-0.5 .. +2.5] | 1/1/0 | 1 |") in text
        assert ("| sim_speed_vs_static_pct (higher is better) | 100.5 -> "
                "101.5 | +1 [-2 .. +4] | 1/0/1 | 1 |") in text
        assert (
            "moves_ok 12 -> 15, moves_failed 1 -> 0, epochs_acted 18 -> 17, "
            "epochs_diverged 1 -> 0"
        ) in text
        assert "acted 18 -> 17, unskilled 0 -> 1" in text
