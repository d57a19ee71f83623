"""``benchmarks/pairs.py``'s pair schedule: which seed each pair runs
and which side goes first.  No child process runs here."""

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
