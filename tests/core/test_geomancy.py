"""Integration tests for the Geomancy facade on the Bluesky testbed."""

import pytest

from repro.core.config import GeomancyConfig
from repro.core.geomancy import Geomancy
from repro.core.layout import MAX_FILES_PER_MOVE
from repro.errors import AgentError, ConfigurationError
from repro.simulation.bluesky import make_bluesky_cluster
from repro.workloads.belle2 import Belle2Workload
from repro.workloads.files import belle2_file_population
from repro.workloads.runner import WorkloadRunner


def quick_config(**overrides):
    # Gates off by default: these tests exercise the decision-loop
    # mechanics at a scale where the model has no real skill.
    base = dict(
        epochs=10, training_rows=800,
        smoothing_window=20, cooldown_runs=5, seed=0,
        require_skill=False, require_ranking_sanity=False,
    )
    base.update(overrides)
    return GeomancyConfig(**base)


@pytest.fixture
def setup():
    cluster = make_bluesky_cluster(seed=0)
    files = belle2_file_population(seed=0)
    geo = Geomancy(cluster, files, quick_config())
    geo.place_initial()
    workload = Belle2Workload(files, seed=1)
    runner = WorkloadRunner(cluster, workload, geo.db)
    return cluster, geo, runner


class TestPlacement:
    def test_initial_layout_registers_files(self, setup):
        cluster, geo, _ = setup
        assert len(cluster.files) == 24

    def test_empty_files_rejected(self):
        with pytest.raises(ConfigurationError):
            Geomancy(make_bluesky_cluster(), [], quick_config())


class TestTelemetryPath:
    def test_observe_run_lands_in_db(self, setup):
        _, geo, runner = setup
        result = runner.run_many(1)[0]
        before = geo.db.access_count()
        geo.observe_records(result.records)
        geo.flush_telemetry(at=runner.clock.now)
        # Note the runner also wrote directly into geo.db; this route
        # goes through the agents, so the count at least doubles.
        assert geo.db.access_count() > before

    def test_observe_unknown_device_rejected(self, setup):
        _, geo, _ = setup
        from repro.replaydb.records import AccessRecord
        bad = AccessRecord(
            fid=0, fsid=0, device="ghost", path="p", rb=1, wb=0,
            ots=0, otms=0, cts=1, ctms=0,
        )
        with pytest.raises(AgentError):
            geo.observe_records([bad])

    def test_monitoring_agents_per_device(self, setup):
        cluster, geo, _ = setup
        assert set(geo.monitors) == set(cluster.device_names)


class TestDecisionLoop:
    def test_no_move_before_cooldown(self, setup):
        _, geo, runner = setup
        runner.run_many(1)
        outcome = geo.after_run(1, runner.clock.now)
        assert not outcome.trained and not outcome.movements

    def test_no_training_without_telemetry(self, setup):
        _, geo, _ = setup
        outcome = geo.after_run(5, 100.0)
        assert not outcome.trained

    def test_trains_and_may_move_on_cooldown_boundary(self, setup):
        _, geo, runner = setup
        for _ in range(5):
            runner.run_many(1)
        outcome = geo.after_run(5, runner.clock.now)
        assert outcome.trained
        assert outcome.training is not None
        # Moves (if any) must respect the per-movement cap.
        assert outcome.moved_files <= MAX_FILES_PER_MOVE

    def test_movements_recorded_in_db(self, setup):
        _, geo, runner = setup
        for run in range(1, 11):
            runner.run_many(1)
            geo.after_run(run, runner.clock.now)
        assert len(geo.db.movements()) == geo.total_moves

    def test_outcomes_accumulate(self, setup):
        """The facade keeps tallies of its cycles, not their outcomes."""
        _, geo, runner = setup
        outcomes = []
        for run in range(1, 4):
            runner.run_many(1)
            outcomes.append(geo.after_run(run, runner.clock.now))
        assert [o.run_index for o in outcomes] == [1, 2, 3]
        assert geo.steps == 3 and geo._last_run_index == 3
        assert geo.total_moves == sum(o.moved_files for o in outcomes)


class TestEndToEnd:
    def test_layout_changes_over_time(self):
        """Over enough runs Geomancy actually reshapes the layout."""
        cluster = make_bluesky_cluster(seed=3)
        files = belle2_file_population(seed=0)
        geo = Geomancy(cluster, files, quick_config(seed=3))
        initial = dict(geo.place_initial())
        runner = WorkloadRunner(
            cluster, Belle2Workload(files, seed=1), geo.db
        )
        for run in range(1, 16):
            runner.run_many(1)
            geo.after_run(run, runner.clock.now)
        final = cluster.layout()
        assert geo.total_moves > 0
        assert any(initial[fid] != final[fid] for fid in initial)


class TestAvailability:
    def test_moves_avoid_unavailable_devices(self, setup):
        cluster, geo, runner = setup
        # file0 (and two more mounts) stop accepting new placements.
        for name in ("file0", "pic", "tmp"):
            cluster.set_device_available(name, False)
        for run in range(1, 16):
            runner.run_many(1)
            geo.after_run(run, runner.clock.now)
        for move in geo.db.movements():
            assert move.dst_device in ("USBtmp", "var", "people")

    def test_no_available_devices_skips_cycle(self, setup):
        cluster, geo, runner = setup
        for name in cluster.device_names:
            cluster.set_device_available(name, False)
        for _ in range(5):
            runner.run_many(1)
        outcome = geo.after_run(5, runner.clock.now)
        assert outcome.movements == []


class TestQosWiring:
    def test_defaults_leave_legacy_plane_intact(self):
        cluster = make_bluesky_cluster(seed=0)
        files = belle2_file_population(seed=0)
        geo = Geomancy(cluster, files, quick_config())
        assert geo.telemetry.faults is None

    def test_qos_off_runs_are_bit_identical(self):
        def outcome():
            cluster = make_bluesky_cluster(seed=0)
            files = belle2_file_population(seed=0)
            geo = Geomancy(cluster, files, quick_config())
            geo.place_initial()
            runner = WorkloadRunner(
                cluster, Belle2Workload(files, seed=1), geo.db,
            )
            for i in range(6):
                geo.observe_records(runner.run_many(1)[0].records)
                geo.flush_telemetry(at=runner.clock.now)
                geo.after_run(i, float(i))
            return (
                cluster.layout(),
                geo.db.access_count(),
                geo.daemon.records_ingested,
            )

        assert outcome() == outcome()
