"""The facade and the old policy adapter act on one decision path.

Same ReplayDB, config and seed: the layout ``Geomancy.after_run``
dispatches is the layout the adapter of :mod:`tests.oracles.policy_loop`
returns.
Each gate of ``DecisionPath.decide`` is shown to stop both in a scenario
that acts as soon as that gate alone is switched off -- so deleting a
gate fails its case.
"""

import numpy as np
import pytest

from repro.core import decision, engine
from repro.core.config import GeomancyConfig
from repro.core.decision import DecisionPath
from repro.core.engine import DRLEngine
from repro.core.geomancy import Geomancy
from repro.policies import RandomDynamicPolicy
from repro.replaydb.db import ReplayDB
from repro.simulation.bluesky import make_bluesky_cluster
from repro.workloads.belle2 import Belle2Workload
from repro.workloads.files import belle2_file_population
from repro.workloads.runner import WorkloadRunner
from tests.oracles.policy_loop import adapter_for

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def quick_config(**overrides):
    base = dict(
        epochs=10, training_rows=800, smoothing_window=20,
        cooldown_runs=5, seed=0,
        require_skill=False, require_ranking_sanity=False,
    )
    base.update(overrides)
    return GeomancyConfig(**base)


@pytest.fixture
def decisions(monkeypatch):
    """Every Decision either caller got back, in call order."""
    seen = []
    real = DecisionPath.decide

    def spy(self, *args):
        seen.append(real(self, *args))
        return seen[-1]

    monkeypatch.setattr(DecisionPath, "decide", spy)
    return seen


def consult_both(config, *, shuffled=True, exploration_rate=0.0):
    """(policy's layout, layouts the facade dispatched as decisions), both
    Action Checkers exploring at ``exploration_rate``."""
    cluster = make_bluesky_cluster(seed=0)
    files = belle2_file_population(seed=0)
    db = ReplayDB()
    geo = Geomancy(cluster, files, config, db=db)
    geo.place_initial()
    runner = WorkloadRunner(cluster, Belle2Workload(files, seed=1), db)
    # Shuffled warm-up, so the telemetry covers (file, device) pairs.
    shuffler = RandomDynamicPolicy(seed=0)
    for run in range(1, 21):
        runner.run_many(1)
        if shuffled and run % 2 == 0:
            cluster.apply_layout(
                shuffler.update_layout(db, files, cluster.device_names),
                runner.clock.now,
            )
    policy = adapter_for(cluster, config)
    geo.checker.exploration_rate = exploration_rate
    policy.decision_path.checker.exploration_rate = exploration_rate
    # The policy only reads the DB; the facade's dispatch writes to it.
    proposed = policy.update_layout(
        db, files, cluster.available_device_names, cluster.layout()
    )
    dispatched = []
    real = geo.dispatch

    def spy(layout, t, *, kind):
        if kind == "decision":
            dispatched.append(dict(layout))
        return real(layout, t, kind=kind)

    geo.dispatch = spy
    outcome = geo.after_run(5, runner.clock.now)
    assert outcome.trained
    return proposed, dispatched


def inverted_ranking(monkeypatch):
    monkeypatch.setattr(
        DRLEngine, "ranking_correlation", lambda self, db, devices: -0.5
    )


def best_device_ahead_by(fraction):
    """Every file predicted ``fraction`` faster on the first device."""
    def stub(monkeypatch):
        def score(self, raw, fsids):
            row = np.full(len(fsids), 1e9)
            row[0] *= 1.0 + fraction
            return np.tile(row, (len(raw), 1))

        monkeypatch.setattr(DRLEngine, "_score_locations", score)

    return stub


def gate(veto, tripped, control, trip_stub=None, control_stub=None, **setup):
    return dict(
        veto=veto, tripped=tripped, control=control, trip_stub=trip_stub,
        control_stub=control_stub, setup=setup,
    )


#: gate -> the veto it raises, a config that trips it and the same config
#: with that gate off (plus engine stubs where no config gets there)
GATES = {
    "unskilled": gate(
        decision.UNSKILLED,
        dict(smoothing_window=1, max_actionable_mare=1e30, require_skill=True),
        dict(smoothing_window=1, max_actionable_mare=1e30),
    ),
    "diverged": gate(
        decision.DIVERGED,
        dict(learning_rate=1e6, max_actionable_mare=1e30),
        dict(max_actionable_mare=1e30),
    ),
    "mare-backstop": gate(
        decision.MARE_BACKSTOP,
        dict(smoothing_window=1),
        dict(smoothing_window=1, max_actionable_mare=1e30),
    ),
    "inverted-ranking": gate(
        decision.INVERTED_RANKING,
        dict(require_ranking_sanity=True),
        dict(),
        inverted_ranking, inverted_ranking,
    ),
    # Unshuffled: the engine takes a file's location from its last
    # access, which a later shuffle would leave stale.
    "no-gain": gate(
        decision.NO_CHANGES,
        dict(max_actionable_mare=1e30), dict(max_actionable_mare=1e30),
        best_device_ahead_by(engine.MIN_GAIN_FRACTION / 2),
        best_device_ahead_by(engine.MIN_GAIN_FRACTION * 2),
        shuffled=False,
    ),
}


class TestFacadeAndPolicyAgree:
    def test_ungated_layouts_are_equal(self, decisions):
        proposed, dispatched = consult_both(quick_config())
        assert proposed and dispatched == [proposed]
        assert [d.veto for d in decisions] == [None, None]
        assert decisions[0].training.test_mare == (
            decisions[1].training.test_mare
        )

    def test_exploration_draws_agree(self, decisions):
        proposed, dispatched = consult_both(
            quick_config(), exploration_rate=1.0
        )
        assert len(proposed) == 1 and dispatched == [proposed]

    @pytest.mark.parametrize("name", sorted(GATES))
    def test_gate_stops_both(self, name, decisions, monkeypatch):
        case = GATES[name]
        with monkeypatch.context() as patch:
            if case["trip_stub"] is not None:
                case["trip_stub"](patch)
            proposed, dispatched = consult_both(
                quick_config(**case["tripped"]), **case["setup"]
            )
        assert proposed is None and dispatched == []
        assert [d.veto for d in decisions] == [case["veto"]] * 2
        # The same scenario acts once this one gate is out of the way.
        if case["control_stub"] is not None:
            case["control_stub"](monkeypatch)
        proposed, dispatched = consult_both(
            quick_config(**case["control"]), **case["setup"]
        )
        assert proposed and dispatched == [proposed]

    def test_too_few_accesses_trains_nothing(self, decisions):
        cluster = make_bluesky_cluster(seed=0)
        files = belle2_file_population(seed=0)
        geo = Geomancy(cluster, files, quick_config())
        geo.place_initial()
        policy = adapter_for(cluster, quick_config())
        assert policy.update_layout(
            geo.db, files, cluster.device_names, cluster.layout()
        ) is None
        assert not geo.after_run(5, 1.0).trained
        assert [d.veto for d in decisions] == [decision.TOO_FEW_ACCESSES] * 2
