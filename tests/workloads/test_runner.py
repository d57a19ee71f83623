"""Tests for the workload runner (integration with cluster + ReplayDB)."""

import gc
import time

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.replaydb.db import ReplayDB
from repro.replaydb.records import AccessRecord
from repro.simulation.bluesky import make_bluesky_cluster
from repro.simulation.clock import SimulationClock
from repro.workloads.belle2 import Belle2Workload
from repro.workloads.files import belle2_file_population
from repro.workloads.interference import make_competing_workload
from repro.workloads import runner as runner_module
from repro.workloads.runner import WorkloadRunner


@pytest.fixture
def setup():
    cluster = make_bluesky_cluster(seed=0)
    files = belle2_file_population(seed=0)
    workload = Belle2Workload(files, seed=1)
    runner = WorkloadRunner(cluster, workload, ReplayDB())
    names = cluster.device_names
    layout = {f.fid: names[f.fid % len(names)] for f in files}
    runner.ensure_files_placed(layout)
    return cluster, runner


class TestPlacement:
    def test_files_registered(self, setup):
        cluster, runner = setup
        assert len(cluster.files) == 24

    def test_missing_layout_entry_raises(self):
        cluster = make_bluesky_cluster(seed=0)
        files = belle2_file_population(seed=0)
        runner = WorkloadRunner(cluster, Belle2Workload(files))
        with pytest.raises(ConfigurationError, match="missing file"):
            runner.ensure_files_placed({0: "file0"})

    def test_placement_idempotent(self, setup):
        cluster, runner = setup
        runner.ensure_files_placed(cluster.layout())
        assert len(cluster.files) == 24


class TestRunExecution:
    def test_run_once_produces_records(self, setup):
        _, runner = setup
        result = runner.run_many(1)[0]
        assert result.run_index == 0
        assert 4 * 10 <= result.access_count <= 4 * 20
        assert runner.db.access_count() == result.access_count

    def test_clock_advances(self, setup):
        _, runner = setup
        before = runner.clock.now
        runner.run_many(1)
        assert runner.clock.now > before

    def test_run_indices_increment(self, setup):
        _, runner = setup
        first = runner.run_many(1)[0]
        second = runner.run_many(1)[0]
        assert (first.run_index, second.run_index) == (0, 1)

    def test_records_follow_layout(self, setup):
        cluster, runner = setup
        result = runner.run_many(1)[0]
        layout = cluster.layout()
        for record in result.records:
            assert record.device == layout[record.fid]

    def test_mean_throughput_positive(self, setup):
        _, runner = setup
        result = runner.run_many(1)[0]
        assert result.mean_throughput_gbps > 0.0

    def test_run_many(self, setup):
        _, runner = setup
        results = runner.run_many(3)
        assert [r.run_index for r in results] == [0, 1, 2]
        assert runner.total_accesses == sum(r.access_count for r in results)

    def test_run_many_negative_rejected(self, setup):
        _, runner = setup
        with pytest.raises(ConfigurationError):
            runner.run_many(-1)

    def test_run_many_zero_runs_nothing(self, setup):
        cluster, runner = setup
        states = [
            cluster.device(name)._rng.bit_generator.state
            for name in cluster.device_names
        ]
        assert runner.run_many(0) == []
        assert (runner.next_run_index, runner.clock.now) == (0, 0.0)
        assert states == [
            cluster.device(name)._rng.bit_generator.state
            for name in cluster.device_names
        ]

    def test_warm_up_reaches_target(self, setup):
        _, runner = setup
        runs = runner.warm_up(200)
        assert runner.db.access_count() >= 200
        assert runs >= 1

    def test_warm_up_invalid_target(self, setup):
        _, runner = setup
        with pytest.raises(ConfigurationError):
            runner.warm_up(0)

    def test_warm_up_without_db_rejected(self, setup):
        cluster, runner = setup
        bare = WorkloadRunner(cluster, runner.workload)
        with pytest.raises(ConfigurationError, match="pass the runner a db"):
            bare.warm_up(200)

    def test_warm_up_raises_when_no_access_can_land(self, setup):
        cluster, runner = setup
        for name in cluster.device_names:
            cluster.set_device_online(name, False)
        started = time.perf_counter()
        with pytest.raises(SimulationError, match="0 of 200 accesses"):
            runner.warm_up(200)
        assert time.perf_counter() - started < 1.0
        assert runner.next_run_index == 200
        assert runner.failed_accesses > 0

    def test_negative_think_time_rejected(self):
        assert runner_module.THINK_TIME_S >= 0
        assert runner_module.OFFLINE_PENALTY_S >= 0


def _drive(db):
    """One seeded runner through all three run methods; its whole state."""
    cluster = make_bluesky_cluster(seed=0)
    files = belle2_file_population(seed=0)
    runner = WorkloadRunner(cluster, Belle2Workload(files, seed=1), db)
    names = cluster.device_names
    runner.ensure_files_placed({f.fid: names[f.fid % len(names)] for f in files})
    records = list(runner.run_many(1)[0].records)
    for result in runner.run_many(3):
        records.extend(result.records)
    records.extend(runner.run_stream())
    stats = {
        name: (
            cluster.device(name).stats.accesses,
            cluster.device(name).stats.bytes_served,
            cluster.device(name).stats.busy_time,
            cluster.device(name).stats.n,
            cluster.device(name).stats.mean,
            cluster.device(name).stats.m2,
        )
        for name in names
    }
    state = (
        records, runner.clock.now, runner.next_run_index,
        runner.total_accesses, stats,
    )
    return runner, state


class TestNoDatabase:
    def test_runner_without_db_equals_runner_with_one(self):
        """The database is a sink: leaving it out changes nothing else."""
        bare, bare_state = _drive(None)
        db = ReplayDB()
        stored, stored_state = _drive(db)
        assert bare.db is None and stored.db is db
        assert bare_state == stored_state
        assert db.recent_accesses(len(stored_state[0])) == stored_state[0]


class TestOneObjectPerAccess:
    """Deterministic stand-ins for a timing threshold: what the ingest
    path allocates per access, counted instead of clocked."""

    def test_batch_leaves_one_tracked_object_per_record(self, setup):
        """Counted two ways, collector off: the objects left tracked, and
        the net growth of the gen0 allocation count, which also sees an
        untracked container such as a fresh empty dict -- whose allocation
        drives collections all the same."""
        cluster, runner = setup
        fids, rb, wb, _ = runner.workload.runs_arrays(0, 80)
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            allocated = gc.get_count()[0]
            batch = cluster.access_batch(fids, 0.0, rb, wb, think_time_s=0.01)
            allocated = gc.get_count()[0] - allocated
            grown = len(gc.get_objects()) - before
            t, one_by_one = batch.end_time, []
            alone = gc.get_count()[0]
            for fid in fids[:1000].tolist():
                one_by_one.append(cluster.access(fid, t))
                t += one_by_one[-1].duration
            alone = gc.get_count()[0] - alone
        finally:
            gc.enable()
        assert len(batch.records) == len(fids) > 4000
        assert grown <= 1.01 * len(fids)
        assert allocated <= 1.05 * len(fids)
        assert alone <= 1.05 * len(one_by_one)
        assert not hasattr(batch.records[0], "__dict__")

    def test_run_results_hold_the_objects_the_scan_built(
        self, setup, monkeypatch
    ):
        _, runner = setup
        built = []

        def spy(cls, fields):
            built.append(tuple.__new__(cls, fields))
            return built[-1]

        monkeypatch.setattr(AccessRecord, "_trusted", classmethod(spy))
        results = [*runner.run_many(5), runner.run_many(1)[0]]
        returned = [r for result in results for r in result.records]
        assert len(returned) == len(built) == runner.total_accesses
        assert all(ours is scanned for ours, scanned in zip(returned, built))


class TestSharedCluster:
    def test_two_runners_share_clock_and_contend(self):
        cluster = make_bluesky_cluster(seed=3)
        clock = SimulationClock()
        files_a = belle2_file_population(seed=0)
        files_b, workload_b = make_competing_workload(seed=9)
        runner_a = WorkloadRunner(
            cluster, Belle2Workload(files_a, seed=1), ReplayDB(), clock=clock
        )
        runner_b = WorkloadRunner(cluster, workload_b, ReplayDB(), clock=clock)
        # Both workloads pile onto file0 so they contend there.
        runner_a.ensure_files_placed({f.fid: "file0" for f in files_a})
        runner_b.ensure_files_placed({f.fid: "file0" for f in files_b})
        runner_a.run_many(1)
        t_after_a = clock.now
        runner_b.run_many(1)
        assert clock.now > t_after_a
        # Distinct fid ranges kept both namespaces separate.
        assert len(cluster.files) == 48

    def test_competing_fids_offset(self):
        files, workload = make_competing_workload()
        assert min(f.fid for f in files) >= 1000
        assert len(files) == 24


class TestRunStream:
    def test_stream_yields_records_incrementally(self, setup):
        _, runner = setup
        stream = runner.run_stream()
        first = next(stream)
        t_after_first = runner.clock.now
        second = next(stream)
        assert second.open_time >= first.close_time
        assert runner.clock.now > t_after_first

    def test_consuming_stream_equals_run_once(self, setup):
        _, runner = setup
        records = list(runner.run_stream())
        assert runner.total_accesses == len(records)
        assert runner.next_run_index == 1

    def test_partial_consumption_still_advances_index(self, setup):
        _, runner = setup
        stream = runner.run_stream()
        next(stream)
        assert runner.next_run_index == 1
        # The next stream is a fresh run.
        assert runner.run_many(1)[0].run_index == 1
