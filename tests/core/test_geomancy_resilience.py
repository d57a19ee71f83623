"""Resilience tests: Geomancy when devices vanish, degrade, or misbehave."""

import pytest

from repro.core import geomancy as geomancy_module
from repro.core.config import GeomancyConfig
from repro.core.action_checker import ActionChecker
from repro.core.geomancy import Geomancy
from repro.errors import AgentError
from repro.faults.health import QUARANTINE_THRESHOLD
from repro.replaydb.records import AccessRecord
from repro.simulation.bluesky import make_bluesky_cluster
from repro.simulation.device import DeviceSpec, StorageDevice
from repro.simulation.interference import ConstantLoad
from repro.workloads.belle2 import Belle2Workload
from repro.workloads.files import belle2_file_population
from repro.workloads.runner import WorkloadRunner

GB = 10**9


def quick_config(**overrides):
    base = dict(
        epochs=10, training_rows=800,
        smoothing_window=20, cooldown_runs=1, seed=0,
        require_skill=False, require_ranking_sanity=False,
    )
    base.update(overrides)
    return GeomancyConfig(**base)


@pytest.fixture
def setup():
    cluster = make_bluesky_cluster(seed=0)
    files = belle2_file_population(seed=0)
    geo = Geomancy(cluster, files, quick_config())
    geo.checker.exploration_rate = 0.0
    geo.place_initial()
    runner = WorkloadRunner(cluster, Belle2Workload(files, seed=1), geo.db)
    return cluster, geo, runner


def warm_up(geo, runner, min_accesses=60):
    while geo.db.access_count() < min_accesses:
        runner.run_many(1)


class TestLazyMonitors:
    def test_device_added_after_construction_gets_a_monitor(self, setup):
        cluster, geo, _ = setup
        cluster.add_device(
            StorageDevice(
                DeviceSpec(name="late", fsid=99, read_gbps=1.0,
                           write_gbps=1.0, capacity_bytes=10 * GB,
                           noise_sigma=0.0),
                ConstantLoad(0.0),
            )
        )
        record = AccessRecord(
            fid=0, fsid=99, device="late", path="p", rb=1, wb=0,
            ots=0, otms=0, cts=1, ctms=0,
        )
        geo.observe_records([record])
        assert "late" in geo.monitors
        assert geo.monitors["late"].observed == 1

    def test_truly_unknown_device_still_rejected(self, setup):
        _, geo, _ = setup
        record = AccessRecord(
            fid=0, fsid=7, device="ghost", path="p", rb=1, wb=0,
            ots=0, otms=0, cts=1, ctms=0,
        )
        with pytest.raises(AgentError, match="ghost"):
            geo.observe_records([record])
        assert "ghost" not in geo.monitors


class TestShrinkingAvailability:
    def test_after_run_survives_devices_going_unavailable(self, setup):
        cluster, geo, runner = setup
        warm_up(geo, runner)
        cluster.set_device_available("file0", False)
        cluster.set_device_available("pic", False)
        outcome = geo.after_run(1, runner.clock.now)
        for move in outcome.movements:
            assert move.dst_device not in ("file0", "pic")

    def test_after_run_survives_all_devices_vanishing(self, setup):
        cluster, geo, runner = setup
        warm_up(geo, runner)
        for name in cluster.device_names:
            cluster.set_device_available(name, False)
        outcome = geo.after_run(1, runner.clock.now)
        assert outcome.movements == []

    def test_checker_drops_targets_that_went_away(self):
        checker = ActionChecker(seed=0)
        checker.exploration_rate = 0.0
        current = {1: "a", 2: "a"}
        proposal = {1: "gone", 2: "b"}
        checked = checker.check(proposal, {"a", "b"}, current)
        assert checked.get(2) == "b"
        assert checked.get(1, "a") == "a"


class TestStrandedRescue:
    def test_after_run_rescues_files_off_offline_devices(self, setup):
        cluster, geo, runner = setup
        warm_up(geo, runner)
        cluster.set_device_online("file0", False)
        stranded_before = len(cluster.files_stranded())
        assert stranded_before > 0
        outcome = geo.after_run(1, runner.clock.now)
        assert outcome.rescued_files > 0
        assert len(cluster.files_stranded()) < stranded_before
        for move in outcome.movements:
            assert move.dst_device != "file0"

    def test_rescue_waves_respect_the_move_cap(self, setup, monkeypatch):
        cluster, geo, runner = setup
        monkeypatch.setattr(geomancy_module, "MAX_FILES_PER_MOVE", 2)
        warm_up(geo, runner)
        cluster.set_device_online("file0", False)
        assert len(cluster.files_stranded()) > 2
        outcome = geo.safety_step(1, runner.clock.now)
        assert 0 < len(outcome.movements) <= 2

    def test_quarantined_devices_get_no_rescued_files(self, setup):
        cluster, geo, runner = setup
        warm_up(geo, runner)
        cluster.set_device_online("file0", False)
        t = runner.clock.now
        for n in range(QUARANTINE_THRESHOLD):
            geo.health.record_failure("var", t + n)
        outcome = geo.after_run(1, t + 10.0)
        assert outcome.rescued_files > 0
        for move in outcome.movements:
            assert move.dst_device != "var"


class TestRunnerTolerance:
    def test_tolerant_runner_counts_failures_and_continues(self, setup):
        cluster, geo, runner = setup
        cluster.set_device_online("file0", False)
        result = runner.run_many(1)[0]
        assert runner.failed_accesses > 0
        assert result.access_count > 0
        assert all(r.device != "file0" for r in result.records)
