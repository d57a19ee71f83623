"""Tests for the Action Checker (paper section V-H)."""

import pytest

from repro.core.action_checker import EXPLORATION_RATE, ActionChecker
from repro.errors import PolicyError

CURRENT = {1: "a", 2: "b", 3: "c"}
VALID = {"a", "b", "c"}


def checker_at(rate, seed):
    checker = ActionChecker(seed=seed)
    checker.exploration_rate = rate
    return checker


def no_explore(seed=0):
    return checker_at(0.0, seed)


class TestFiltering:
    def test_valid_proposal_passes_through(self):
        proposal = {1: "b", 2: "c"}
        assert no_explore().check(proposal, VALID, CURRENT) == proposal

    def test_invalid_targets_dropped(self):
        proposal = {1: "b", 2: "ghost"}
        assert no_explore().check(proposal, VALID, CURRENT) == {1: "b"}

    def test_all_invalid_triggers_random_move(self):
        checker = no_explore(seed=1)
        result = checker.check({1: "ghost", 2: "ghost"}, VALID, CURRENT)
        assert len(result) == 1
        fid, device = next(iter(result.items()))
        assert device in VALID
        assert device != CURRENT[fid]
        assert checker.random_decisions == 1

    def test_empty_proposal_stays_empty(self):
        assert no_explore().check({}, VALID, CURRENT) == {}

    def test_no_valid_devices_rejected(self):
        with pytest.raises(PolicyError):
            no_explore().check({1: "a"}, set(), CURRENT)

    def test_current_layout_may_reference_unavailable_devices(self):
        # A file can sit on a device that stopped accepting placements;
        # the checker only constrains move *targets*.
        result = no_explore().check({1: "a"}, {"a"}, {1: "retired"})
        assert result == {1: "a"}


class TestExploration:
    def test_always_explore_replaces_proposal(self):
        checker = checker_at(1.0, seed=2)
        result = checker.check({1: "b", 2: "c"}, VALID, CURRENT)
        assert len(result) <= 1  # a single random move
        assert checker.random_decisions == 1

    def test_exploration_rate_approximated(self):
        checker = ActionChecker(seed=3)
        for _ in range(2000):
            checker.check({1: "b"}, VALID, CURRENT)
        assert 0.07 <= checker.random_fraction <= 0.13

    def test_random_move_targets_differ_from_current(self):
        checker = checker_at(1.0, seed=4)
        for _ in range(50):
            result = checker.check({}, VALID, CURRENT)
            for fid, device in result.items():
                assert device != CURRENT[fid]

    def test_single_device_random_move_is_noop(self):
        checker = checker_at(1.0, seed=5)
        assert checker.check({}, {"a"}, {1: "a"}) == {}

    def test_empty_layout_random_move_is_noop(self):
        checker = checker_at(1.0, seed=6)
        assert checker.check({}, VALID, {}) == {}

    def test_rate_is_the_papers_ten_percent(self, monkeypatch):
        """Section V-H: "random decision are used by Geomancy 10% of the
        runs"; a checker reads the constant when it is built."""
        assert EXPLORATION_RATE == 0.10
        assert ActionChecker(seed=0).exploration_rate == 0.10
        monkeypatch.setattr(
            "repro.core.action_checker.EXPLORATION_RATE", 0.5
        )
        assert ActionChecker(seed=0).exploration_rate == 0.5

    def test_random_fraction_zero_before_decisions(self):
        assert ActionChecker(seed=0).random_fraction == 0.0
