"""``benchmarks/pairs.py``'s pair schedule -- which seed each pair runs
and which side goes first -- and its verdict over the pairs' metrics.
No child process runs here."""

from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture
def pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import pairs

    return pairs


def firsts_by_seed(schedule):
    by_seed = {}
    for seed, parent_first in schedule:
        by_seed.setdefault(seed, []).append(parent_first)
    return by_seed


@pytest.mark.parametrize("seeds", [[0, 3], [0, 3, 5, 7, 11]])
def test_each_seed_alternates_its_first_side(pairs, seeds):
    schedule = pairs.pair_schedule(4 * len(seeds), seeds)
    assert [seed for seed, _ in schedule] == seeds * 4
    for firsts in firsts_by_seed(schedule).values():
        assert firsts.count(True) == firsts.count(False) == 2
        assert all(a != b for a, b in zip(firsts, firsts[1:]))


def test_two_seeds_do_not_pin_the_order(pairs):
    schedule = pairs.pair_schedule(4, [0, 3])
    assert schedule == [(0, True), (3, False), (0, False), (3, True)]


def test_odd_seed_count_still_alternates_pair_by_pair(pairs):
    schedule = pairs.pair_schedule(10, [0, 3, 5, 7, 11])
    firsts = [parent_first for _, parent_first in schedule]
    assert firsts == [True, False] * 5


P50 = {"name": "decision_epoch_ms_p50", "better": "lower", "bound": 0.2}


def test_a_gain_on_every_seed_is_a_gain_across_seed_levels(pairs):
    # Two seeds whose parent medians sit 9.58 and 11.0 ms apart, as on
    # telemetry_flood with --seeds 0 3: the change wins all ten pairs by
    # about 11 %, far outside each seed's own spread, but the pooled
    # quartiles span both seed levels.
    parent = {0: [9.50, 9.55, 9.58, 9.62, 9.66],
              3: [10.90, 10.95, 11.00, 11.05, 11.10]}
    change = {0: [8.45, 8.50, 8.52, 8.55, 8.60],
              3: [9.70, 9.75, 9.78, 9.80, 9.85]}
    seeds = [seed for seed, _ in pairs.pair_schedule(10, [0, 3])]
    parent_left = {seed: iter(runs) for seed, runs in parent.items()}
    change_left = {seed: iter(runs) for seed, runs in change.items()}
    parent_runs = [next(parent_left[seed]) for seed in seeds]
    change_runs = [next(change_left[seed]) for seed in seeds]
    gap, iqr = pairs.lead(parent_runs, change_runs, lower=True)
    assert 0 < gap < iqr  # pooled, the gap reads as noise
    result = pairs.verdict(P50, parent_runs, change_runs, seeds)
    assert (result["wins"], result["verdict"]) == (10, "gain")
    assert round(result["delta_pct"], 1) == -11.0


@pytest.mark.parametrize("faster, word", [
    (0.5, "gain"), (0.05, "within bound"),
])
def test_one_seed_keeps_the_pooled_rule(pairs, faster, word):
    # The change wins every pair by ``faster`` ms; on one seed the
    # per-seed rule is the pooled one: a gain only past the parent's IQR.
    parent = [9.50, 9.60, 9.70, 9.55, 9.65, 9.58, 9.62, 9.52, 9.68, 9.57]
    change = [run - faster for run in parent]
    gap, iqr = pairs.lead(parent, change, lower=True)
    assert (gap > iqr) == (word == "gain")
    result = pairs.verdict(P50, parent, change, [7] * 10)
    assert (result["wins"], result["verdict"]) == (10, word)
