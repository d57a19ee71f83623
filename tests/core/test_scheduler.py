"""Tests for the movement cooldown of ``Geomancy.safety_step``: the paper
applies layouts every five workload runs (section VI)."""

import pytest

from repro.core.config import GeomancyConfig
from repro.core.geomancy import Geomancy
from repro.errors import ConfigurationError
from repro.simulation.bluesky import make_bluesky_cluster
from repro.workloads.files import belle2_file_population


def cycles_let_through(cooldown_runs, run_indices):
    """The run indices on which ``safety_step`` made a decision."""
    geo = Geomancy(
        make_bluesky_cluster(seed=0), belle2_file_population(seed=0),
        GeomancyConfig(cooldown_runs=cooldown_runs),
    )
    decided = []
    for run_index in run_indices:
        before = geo.decisions
        geo.safety_step(run_index, float(run_index))
        if geo.decisions > before:
            decided.append(run_index)
    return decided


class TestCooldownScheduler:
    def test_every_five_runs(self):
        assert cycles_let_through(5, range(26)) == [5, 10, 15, 20, 25]

    def test_run_zero_never_moves(self):
        assert cycles_let_through(1, [0]) == []

    def test_cooldown_one_moves_every_run(self):
        assert cycles_let_through(1, range(1, 10)) == list(range(1, 10))

    def test_invalid_cooldown(self):
        with pytest.raises(ConfigurationError):
            GeomancyConfig(cooldown_runs=0)

    def test_negative_run_index_rejected(self):
        geo = Geomancy(
            make_bluesky_cluster(seed=0), belle2_file_population(seed=0),
            GeomancyConfig(),
        )
        with pytest.raises(ConfigurationError, match="run_index"):
            geo.safety_step(-1, 0.0)
        assert geo.steps == 0
