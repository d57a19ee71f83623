"""The facade's own safety net: the guardrail fires from a bare Geomancy.

Nothing here comes from ``repro.experiments``: the loop is the plain
``observe_records`` / ``flush_telemetry`` / ``after_run`` one a user of
the product writes.
"""

import numpy as np
import pytest

from repro.core.config import GeomancyConfig
from repro.core.geomancy import Geomancy
from repro.recovery import guardrail
from repro.recovery.guardrail import Guardrail
from repro.simulation.bluesky import make_bluesky_cluster
from repro.workloads.belle2 import Belle2Workload
from repro.workloads.files import belle2_file_population
from repro.workloads.runner import WorkloadRunner

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

COOLDOWN = guardrail.COOLDOWN_RUNS


def guarded(**overrides):
    params = dict(
        epochs=10, training_rows=800, smoothing_window=20,
        cooldown_runs=1, seed=0, require_skill=False,
        require_ranking_sanity=False, guardrail_enabled=True,
    )
    params.update(overrides)
    config = GeomancyConfig(**params)
    cluster = make_bluesky_cluster(seed=0)
    files = belle2_file_population(seed=0)
    geo = Geomancy(cluster, files, config)
    geo.checker.exploration_rate = 0.0
    geo.place_initial()
    runner = WorkloadRunner(cluster, Belle2Workload(files, seed=1))
    return geo, runner


def drive(geo, runner, runs, *, realized=np.mean):
    """The product's loop; ``realized`` maps a run's GB/s to what is told."""
    outcomes = []
    for run in runs:
        records = runner.run_many(1)[0].records
        geo.observe_records(records)
        geo.flush_telemetry(at=runner.clock.now)
        kwargs = {}
        if realized is not None:
            kwargs["realized_gbps"] = float(
                realized([r.throughput_gbps for r in records])
            )
        outcomes.append(geo.after_run(run, runner.clock.now, **kwargs))
    return outcomes


class TestGuardrailIsTheProducts:
    def test_built_from_config(self):
        geo, _ = guarded(fallback_policy="lru")
        assert isinstance(geo.guardrail, Guardrail)
        assert geo.guardrail.fallback == "lru"
        assert geo.guardrail.event_log is geo.event_log
        plain = Geomancy(
            make_bluesky_cluster(seed=0), belle2_file_population(seed=0)
        )
        assert plain.guardrail is None

    def test_nan_loss_trips_rolls_back_benches_and_readmits(self):
        geo, runner = guarded(learning_rate=1e6)
        drive(geo, runner, [0, 0])  # telemetry only: run 0 never consults
        geo.mark_known_good(0)
        marked = geo.cluster.layout()
        # Something drifts off the marked layout before the learner breaks.
        fid = geo.files[0].fid
        elsewhere = next(
            d for d in geo.cluster.device_names if d != marked[fid]
        )
        geo.cluster.apply_layout({fid: elsewhere}, runner.clock.now)

        first, *benched, back = drive(geo, runner, range(1, COOLDOWN + 3))
        assert first.trained and first.trip == "nan-loss"
        assert not first.fallback
        assert geo.cluster.layout() == marked
        rollback = geo.event_log.of_kind("guardrail-rollback")[0]
        assert rollback.step == 1
        assert rollback.detail["files_targeted"] == 1
        assert rollback.detail["files_moved"] == 1

        assert [o.fallback for o in benched] == [True] * COOLDOWN
        assert not any(o.trained for o in benched)
        assert geo.fallback_runs == COOLDOWN
        readmit = geo.event_log.of_kind("guardrail-readmit")[0]
        assert readmit.step == 1 + COOLDOWN
        # Re-admitted: the learner (still broken) is consulted again.
        assert back.trained and not back.fallback

    def test_marks_are_ignored_while_benched(self):
        geo, runner = guarded(learning_rate=1e6)
        drive(geo, runner, [0, 0])
        geo.mark_known_good(0)
        drive(geo, runner, [1])
        assert geo.guardrail.in_fallback
        geo.mark_known_good(1)
        assert geo.known_good["step"] == 0

    def test_without_realized_throughput_training_health_still_trips(self):
        geo, runner = guarded(learning_rate=1e6)
        drive(geo, runner, [0, 0])
        (outcome,) = drive(geo, runner, [1], realized=None)
        assert outcome.trip == "nan-loss"

    def test_throughput_is_judged_only_when_told(self, monkeypatch):
        # The scheduler never consults the learner here: only the
        # realized-vs-predicted check can trip.
        monkeypatch.setattr(guardrail, "WINDOW", 1)
        geo, _ = guarded(cooldown_runs=1000)
        geo.pending_predicted = 1.0
        untold = geo.after_run(1, 10.0)
        assert untold.trip is None and not geo.guardrail.trips
        told = geo.after_run(2, 20.0, realized_gbps=0.4)
        assert told.trip == "throughput-regression"
        assert geo.guardrail.trips[0].run_index == 2
        assert geo.pending_predicted is None
        assert geo.event_log.of_kind("guardrail-rollback")[0].step == 2
        assert geo.after_run(3, 30.0, realized_gbps=0.4).fallback
        assert geo.steps == 3 and geo._last_run_index == 3
