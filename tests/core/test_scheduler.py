"""Tests for movement scheduling."""

import pytest

from repro.core.scheduler import CooldownScheduler
from repro.errors import ConfigurationError


class TestCooldownScheduler:
    def test_every_five_runs(self):
        scheduler = CooldownScheduler(5)
        moves = [i for i in range(26) if scheduler.should_move(i)]
        assert moves == [5, 10, 15, 20, 25]

    def test_run_zero_never_moves(self):
        assert not CooldownScheduler(1).should_move(0)

    def test_cooldown_one_moves_every_run(self):
        scheduler = CooldownScheduler(1)
        assert all(scheduler.should_move(i) for i in range(1, 10))

    def test_invalid_cooldown(self):
        with pytest.raises(ConfigurationError):
            CooldownScheduler(0)

    def test_negative_run_index_rejected(self):
        with pytest.raises(ConfigurationError):
            CooldownScheduler(5).should_move(-1)
