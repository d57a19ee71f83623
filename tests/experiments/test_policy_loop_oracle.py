"""Every paper figure decides through the facade, as the adapter did.

Fig. 5a's Geomancy and LRU cells and both Fig. 6 modes run once through
``src/`` (``Geomancy.after_run`` / ``safety_step`` with a policy act)
and once through :mod:`tests.oracles.policy_loop` (the harness consulting
a policy, Geomancy behind the decision-path adapter).  The throughput
series, the movement lists and every migration the cluster executed must
be equal element for element.
"""

import pytest

from repro.experiments.fig5_comparison import GEOMANCY, _policy_cell
from repro.experiments.fig6_adaptation import run_fig6
from repro.experiments.harness import make_experiment_config
from repro.experiments.spec import TEST_SCALE
from repro.policies.lru import LRUPolicy
from repro.simulation.bluesky import make_bluesky_cluster
from repro.simulation.cluster import StorageCluster
from tests.oracles.policy_loop import (
    adapter_for,
    run_fig6_cell,
    run_policy_cell,
)

SEEDS = (0, 3)


@pytest.fixture
def migrations(monkeypatch):
    """Every migration any cluster executed, as ``(fid, dst, t)``."""
    seen = []
    real = StorageCluster.migrate

    def spy(self, fid, dst, t):
        move = real(self, fid, dst, t)
        if move is not None:
            seen.append((fid, dst, t))
        return move

    monkeypatch.setattr(StorageCluster, "migrate", spy)
    return seen


def measured(run, migrations):
    """``run()``'s result and the migrations it caused."""
    start = len(migrations)
    result = run()
    return result, migrations[start:]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", [GEOMANCY, "LRU"])
def test_fig5_cell_equals_the_policy_loop(name, seed, migrations):
    facade, facade_moves = measured(
        lambda: _policy_cell((name, TEST_SCALE, seed)), migrations
    )
    policy = (
        adapter_for(
            make_bluesky_cluster(seed=seed),
            make_experiment_config(TEST_SCALE, seed=seed),
        )
        if name == GEOMANCY
        else LRUPolicy()
    )
    oracle, oracle_moves = measured(
        lambda: run_policy_cell(policy, scale=TEST_SCALE, seed=seed),
        migrations,
    )
    assert facade.policy_name == oracle.policy_name == name
    assert facade.movements and facade.movements == oracle.movements
    assert facade.throughput_gbps == oracle.throughput_gbps
    assert facade_moves == oracle_moves


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("online", [False, True])
def test_fig6_equals_the_policy_loop(online, seed, migrations):
    facade, facade_moves = measured(
        lambda: run_fig6(scale=TEST_SCALE, seed=seed, online=online),
        migrations,
    )
    oracle, oracle_moves = measured(
        lambda: run_fig6_cell(scale=TEST_SCALE, seed=seed, online=online),
        migrations,
    )
    assert facade_moves and facade_moves == oracle_moves
    assert facade == oracle
