"""Batched access pipeline vs. the scalar access: exact-equivalence tests.

The batched access pipeline (``StorageCluster.access_batch`` over
``StorageDevice.prepare_batch``, ``WorkloadRunner.run_many`` fusion)
promises *bit-for-bit* the outputs of the access-by-access path --
records, durations, RNG stream positions, device statistics, crowding
windows, and the clock.  These tests hold it to that promise across
randomized op mixes and fault
schedules (including devices flipping offline/online mid-batch), plus the
satellite invariants that ride on the fast path: incremental
``stored_bytes`` counters, the running DeviceStats aggregates, the
memoized BurstyLoad slot table, and ``Belle2Workload.run_arrays``.
"""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeviceOfflineError, SimulatedCrash
from repro.experiments.facade import (
    Checkpoints,
    Exports,
    Faults,
    resume_facade,
    run_chaos,
    run_facade,
)
from repro.experiments.harness import make_experiment_config
from repro.experiments.fig6_adaptation import run_fig6
from repro.experiments.spec import TEST_SCALE
from repro.replaydb.db import ReplayDB
from repro.simulation.cluster import StorageCluster
from repro.simulation.device import DeviceSpec, DeviceStats, StorageDevice
from repro.simulation.interference import (
    BurstyLoad,
    CompositeLoad,
    ConstantLoad,
)
from repro.simulation.topologies import make_scaled_cluster
from repro.workloads import belle2
from repro.workloads.belle2 import Belle2Workload
from repro.workloads.files import belle2_file_population
from repro.workloads.runner import WorkloadRunner
from tests.oracles import scalar_device
from tests.oracles.scalar_device import access as scalar_access
from tests.oracles.scalar_ops import scalar_run
from tests.oracles.scalar_runs import (
    ScalarRunner,
    run_chaos_scalar,
    scalar_control_loop,
)

GB = 10**9


def device_fingerprint(device: StorageDevice) -> tuple:
    """Every bit of serving-relevant device state, exactly comparable."""
    return (
        device.stats.accesses,
        device.stats.bytes_served,
        device.stats.busy_time,
        device.stats.n,
        device.stats.mean,
        device.stats.m2,
        device._recent_sum,
        tuple(device._window_entries()),
        device._rng.bit_generator.state,
        device._rng_cache.bit_generator.state,
        device.online,
        device.degradation,
    )


class TestBurstyLoadMemoization:
    def test_slot_table_matches_counter_based_definition(self):
        # Fixed-seed regression: the memoized table must reproduce the
        # documented counter-based scheme -- slot k's coin flip is the
        # first uniform of default_rng((seed, k)) -- for every slot.
        process = BurstyLoad(seed=42, slot_seconds=10.0, p_on=0.25)
        for slot in range(50):
            expected = bool(
                np.random.default_rng((42, slot)).random() < 0.25
            )
            level = process.load(slot * 10.0 + 3.0)
            assert level == (0.7 if expected else 0.05)
            assert process._slot_table[slot] is expected

    def test_repeat_queries_hit_the_memo(self):
        process = BurstyLoad(seed=7, slot_seconds=60.0)
        first = [process.load(t) for t in (0.0, 30.0, 61.0, 150.0)]
        assert len(process._slot_table) == 3  # slots 0, 1, 2
        again = [process.load(t) for t in (0.0, 30.0, 61.0, 150.0)]
        assert first == again


def make_cluster(seed: int) -> StorageCluster:
    """A three-device cluster exercising cache, noise, and load variety."""
    specs = [
        DeviceSpec(
            name="fast", fsid=0, read_gbps=8.0, write_gbps=4.0,
            capacity_bytes=10**13, noise_sigma=0.25, cache_hit_rate=0.3,
        ),
        DeviceSpec(
            name="plain", fsid=1, read_gbps=2.0, write_gbps=1.0,
            capacity_bytes=10**13, noise_sigma=0.25,
        ),
        DeviceSpec(
            name="quiet", fsid=2, read_gbps=1.0, write_gbps=1.0,
            capacity_bytes=10**13, noise_sigma=0.0,
            interference_sensitivity=0.0,
        ),
    ]
    loads = [
        CompositeLoad(
            [ConstantLoad(0.1), BurstyLoad(seed=seed, slot_seconds=4.0)]
        ),
        BurstyLoad(seed=seed + 1, slot_seconds=6.0),
        ConstantLoad(0.0),
    ]
    return StorageCluster(
        [
            StorageDevice(spec, load, seed=seed)
            for spec, load in zip(specs, loads)
        ]
    )


def make_twin_clusters(seed: int):
    """Two identically-seeded three-device clusters with files placed."""

    def build():
        cluster = make_cluster(seed)
        names = cluster.device_names
        for fid in range(6):
            cluster.add_file(
                fid, f"/f{fid}", (fid + 1) * 10**8, names[fid % 3]
            )
        return cluster

    return build(), build()


def scalar_access_loop(cluster, ops, *, t0, think, penalty, hook=None):
    """The documented scalar contract ``access_batch`` must reproduce,
    one access at a time through the readable scalar model: the records,
    the positions of the ops offline devices rejected, and the end time."""
    t = t0
    records = []
    failed = []
    for position, (fid, rb, wb) in enumerate(ops):
        try:
            record = scalar_access(cluster, fid, t, rb=rb, wb=wb)
        except DeviceOfflineError:
            failed.append(position)
            t += penalty + think
            continue
        records.append(record)
        t += record.duration + think
        if hook is not None:
            hook(t)
    return records, failed, t


def make_fault_hook(cluster, schedule):
    """Hook flipping devices per ``{call_number: [(device, online)]}``."""
    calls = [0]

    def hook(_t):
        calls[0] += 1
        for name, online in schedule.get(calls[0], ()):
            cluster.set_device_online(name, online)

    return hook


class TestAccessBatchEquivalence:
    @given(
        seed=st.integers(0, 25),
        fids=st.lists(st.integers(0, 5), min_size=1, max_size=50),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_access_batch_matches_scalar_loop(self, seed, fids, data):
        n = len(fids)
        rb = data.draw(
            st.lists(st.integers(0, GB), min_size=n, max_size=n)
        )
        wb = data.draw(
            st.lists(st.integers(0, GB), min_size=n, max_size=n)
        )
        batched, reference = make_twin_clusters(seed)
        ops = list(zip(fids, rb, wb))

        result = batched.access_batch(
            fids, 0.0, rb, wb, think_time_s=0.01
        )
        records, failed, end = scalar_access_loop(
            reference, ops, t0=0.0, think=0.01, penalty=0.0
        )
        assert result.records == records
        assert result.failed == failed == []
        assert result.end_time == end
        for name in batched.device_names:
            assert device_fingerprint(
                batched.device(name)
            ) == device_fingerprint(reference.device(name))

    @given(
        seed=st.integers(0, 20),
        fids=st.lists(st.integers(0, 5), min_size=4, max_size=40),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_mid_batch_faults_match_scalar_loop(self, seed, fids, data):
        # Random schedule of offline/online flips fired from the advance
        # hook mid-batch: the batched path must burn draws exactly as the
        # scalar loop does around every rejected op, and name the same
        # rejected positions.
        n = len(fids)
        flips = data.draw(
            st.lists(
                st.tuples(
                    st.integers(1, n),
                    st.sampled_from(["fast", "plain", "quiet"]),
                    st.booleans(),
                ),
                min_size=1,
                max_size=4,
            )
        )
        schedule: dict[int, list] = {}
        for call, name, online in flips:
            schedule.setdefault(call, []).append((name, online))

        batched, reference = make_twin_clusters(seed)
        ops = [(fid, 0, 0) for fid in fids]  # default whole-file reads

        result = batched.access_batch(
            fids,
            0.0,
            think_time_s=0.01,
            offline_penalty_s=0.05,
            advance_hook=make_fault_hook(batched, schedule),
        )
        records, failed, end = scalar_access_loop(
            reference,
            ops,
            t0=0.0,
            think=0.01,
            penalty=0.05,
            hook=make_fault_hook(reference, schedule),
        )
        assert result.records == records
        assert result.failed == failed
        assert len(records) + len(failed) == n
        assert result.end_time == end
        for name in batched.device_names:
            assert device_fingerprint(
                batched.device(name)
            ) == device_fingerprint(reference.device(name))


class TestManyDeviceBatch:
    """``wide_probe``'s shape: one batch over 32 devices, grouped and
    pre-drawn per device, with devices dropping out and coming back."""

    @staticmethod
    def scaled_twins(seed: int):
        def build():
            cluster = make_scaled_cluster(32, seed=seed)
            names = cluster.device_names
            for fid in range(96):
                cluster.add_file(
                    fid, f"/s{fid}", (fid % 7 + 1) * 10**8, names[fid % 32]
                )
            return cluster

        return build(), build()

    @pytest.mark.parametrize("seed", [0, 5])
    def test_mid_batch_offline_schedule_matches_scalar_loop(self, seed):
        rng = np.random.default_rng(seed)
        fids = rng.integers(0, 96, 600)
        rb = rng.integers(0, 2, 600) * rng.integers(0, GB, 600)
        wb = rng.integers(0, 2, 600) * rng.integers(0, GB, 600)
        # Devices leave and return at served-op counts 50..450; one is
        # offline across the rest of the batch.
        schedule = {
            50: [("dev00003", False), ("dev00017", False)],
            180: [("dev00003", True), ("dev00030", False)],
            320: [("dev00017", True), ("dev00000", False)],
            450: [("dev00000", True)],
        }
        batched, reference = self.scaled_twins(seed)
        result = batched.access_batch(
            fids, 1.0, rb, wb, think_time_s=0.01, offline_penalty_s=0.05,
            advance_hook=make_fault_hook(batched, schedule),
        )
        records, failed, end = scalar_access_loop(
            reference, list(zip(fids.tolist(), rb.tolist(), wb.tolist())),
            t0=1.0, think=0.01, penalty=0.05,
            hook=make_fault_hook(reference, schedule),
        )
        assert result.records == records
        assert result.failed == failed and len(failed) > 10
        assert result.end_time == end
        for name in batched.device_names:
            assert device_fingerprint(
                batched.device(name)
            ) == device_fingerprint(reference.device(name))


def build_runner(runner_type=WorkloadRunner):
    """A seeded runner with a ReplayDB over :func:`make_cluster`."""
    cluster = make_cluster(3)
    files = belle2_file_population(seed=3)[:20]
    for spec in files:
        cluster.add_file(
            spec.fid, spec.path, spec.size_bytes,
            cluster.device_names[spec.fid % 3],
        )
    return runner_type(cluster, Belle2Workload(files, seed=4), ReplayDB())


def assert_same_runs(runner, results, other, other_results):
    """Runs, failures, clock, DB rows and every device's state agree."""
    assert [r.run_index for r in results] == [
        r.run_index for r in other_results
    ]
    assert [r.records for r in results] == [r.records for r in other_results]
    assert runner.failed_accesses == other.failed_accesses
    assert runner.clock.now == other.clock.now
    assert runner.db.recent_accesses(10**6) == (
        other.db.recent_accesses(10**6)
    )
    for name in runner.cluster.device_names:
        assert device_fingerprint(
            runner.cluster.device(name)
        ) == device_fingerprint(other.cluster.device(name))


class TestRunnerFusionEquivalence:
    def test_run_many_matches_run_once_loop(self):
        fused = build_runner()
        fused_results = fused.run_many(6)
        # ... one access_batch per run, and one scalar access per op.
        for other in (build_runner(), build_runner(ScalarRunner)):
            other_results = [other.run_many(1)[0] for _ in range(6)]
            assert_same_runs(fused, fused_results, other, other_results)

    def test_fused_runs_under_faults_match_scalar_runs(self):
        # One device is offline from the first op and the hook takes a
        # second one down mid-span and back: the one access_batch of
        # run_many(k) must split records and failures into runs exactly
        # as k access-by-access runs do.
        schedule = {60: [("fast", False)], 140: [("fast", True)]}
        runs = []
        for runner_type in (WorkloadRunner, ScalarRunner):
            runner = build_runner(runner_type)
            runner.cluster.set_device_online("plain", False)
            hook = make_fault_hook(runner.cluster, schedule)
            runs.append((runner, runner.run_many(6, advance_hook=hook)))
        (fused, fused_results), (scalar, scalar_results) = runs
        assert_same_runs(fused, fused_results, scalar, scalar_results)
        served = sum(r.access_count for r in fused_results)
        assert served > 140 and fused.failed_accesses > 0
        assert sum(
            r.access_count < len(fused.workload.run_arrays(r.run_index)[0])
            for r in fused_results
        ) > 1


class TestChaosEndToEndEquivalence:
    def test_run_chaos_batched_bit_identical_to_scalar(self):
        # The crown-jewel acceptance check: a full chaos experiment --
        # warmup, dynamic policy decisions, migrations, and injected
        # device faults -- replays identically on both paths.
        batched = run_chaos(scale=TEST_SCALE, seed=7)
        scalar = run_chaos_scalar(scale=TEST_SCALE, seed=7)
        # The report reads every counter off the two runs' objects; the
        # runs compare by their books.
        assert batched.to_text() == scalar.to_text()
        assert batched.movement_fingerprint() == scalar.movement_fingerprint()
        assert batched.baseline == scalar.baseline
        assert batched.chaos == scalar.chaos
        assert batched == scalar

    @pytest.mark.parametrize("online", [False, True])
    def test_fig6_bit_identical_to_scalar(self, online):
        # Fig. 6's tuned runner (batched alone, then streamed) and its
        # competitor (streamed), against both on the scalar model.
        def fig6():
            return run_fig6(scale=TEST_SCALE, seed=0, online=online)

        served = fig6()
        with scalar_control_loop(), patch.object(
            WorkloadRunner, "run_stream", scalar_device.run_stream
        ):
            scalar = fig6()
        assert served.competing_gbps
        assert served == scalar

    def test_run_instrumented_bit_identical_to_scalar(self, tmp_path):
        faults = Faults(
            schedule=("kill:file0@40", "outage:pic@60+30"),
            migration_failure_rate=0.1,
        )

        def observed():
            return run_facade(
                make_experiment_config(TEST_SCALE), scale=TEST_SCALE,
                seed=0, faults=faults,
                exports=Exports(trace_path=tmp_path / "trace.json"),
            )

        def decision_calls(run):
            """Traced calls above the runner and the agents it feeds."""
            calls = run.trace.calls
            return {
                layer: calls[layer]
                for layer in ("geomancy", "engine", "features", "nn",
                              "action_checker", "agents.control")
            }

        batched = observed()
        with scalar_control_loop():
            scalar = observed()
        assert batched.movements  # the faults and the learner both moved
        assert batched.movement_fingerprint() == scalar.movement_fingerprint()
        assert batched.final_layout == scalar.final_layout
        assert batched.mean_gbps == scalar.mean_gbps
        assert decision_calls(batched) == decision_calls(scalar)

    def test_run_recoverable_and_resume_bit_identical_to_scalar(
        self, tmp_path
    ):
        def recover(directory, **kill):
            return run_facade(
                make_experiment_config(TEST_SCALE), scale=TEST_SCALE,
                seed=0,
                faults=Faults(
                    schedule=("kill:file0@40",), migration_failure_rate=0.1
                ),
                checkpoints=Checkpoints(tmp_path / directory, every=2, **kill),
            )

        batched = recover("batched")
        with scalar_control_loop():
            scalar = recover("scalar")
            # Killed between checkpoints, resumed on the scalar path too.
            with pytest.raises(SimulatedCrash):
                recover("killed", kill_at_run=5, kill_point="pre-commit")
            resumed = resume_facade(tmp_path / "killed")
        assert batched.movements and batched.rescued_files
        assert resumed.resumed_from_step == 4
        for other in (scalar, resumed):
            assert (
                batched.movement_fingerprint() == other.movement_fingerprint()
            )
            assert batched.final_layout == other.final_layout
            assert batched.mean_gbps == other.mean_gbps


class TestStoredBytesCounters:
    def test_counters_consistent_under_placement_and_migration(self):
        cluster, _ = make_twin_clusters(11)

        def assert_consistent():
            for name in cluster.device_names:
                assert cluster.stored_bytes(name) == sum(
                    info.size_bytes for info in cluster.files_on(name)
                )

        assert_consistent()
        cluster.add_file(100, "/extra", 5 * 10**8, "fast")
        assert_consistent()
        cluster.migrate(100, "plain", 0.0)
        assert_consistent()
        names = cluster.device_names
        relayout = {
            info.fid: names[(info.fid + 1) % 3] for info in cluster.files
        }
        cluster.apply_layout(relayout, 100.0)
        assert_consistent()


class TestDeviceStatsAggregates:
    @given(
        samples=st.lists(
            st.floats(1e3, 1e10, allow_nan=False), min_size=1, max_size=200
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_running_aggregates_match_numpy_formulas(self, samples):
        stats = DeviceStats()
        for value in samples:
            stats.append_sample(value)
        assert stats.mean_throughput_gbps() == pytest.approx(
            float(np.mean(samples)) / 1e9, rel=1e-9
        )
        assert stats.std_throughput_gbps() == pytest.approx(
            float(np.std(samples)) / 1e9, rel=1e-6, abs=1e-12
        )

    @given(
        samples=st.lists(
            st.floats(1e3, 1e10, allow_nan=False), min_size=0, max_size=300
        ),
        split=st.integers(0, 300),
    )
    @settings(max_examples=40, deadline=None)
    def test_extend_samples_bit_identical_to_append_loop(
        self, samples, split
    ):
        split = min(split, len(samples))
        bulk = DeviceStats()
        bulk.extend_samples(samples[:split])
        bulk.extend_samples(samples[split:])
        one_by_one = DeviceStats()
        for value in samples:
            one_by_one.append_sample(value)
        assert bulk == one_by_one
        assert (bulk.n, bulk.mean, bulk.m2) == (
            one_by_one.n, one_by_one.mean, one_by_one.m2
        )


class TestRunArraysPacking:
    def test_run_arrays_matches_op_list(self):
        """``run_arrays`` against the op-by-op draw loop."""
        files = belle2_file_population(seed=5)[:30]
        for files_per_run, constants in (
            (4, {}),
            (7, {"BURST_RANGE": (1, 3), "WRITE_PROBABILITY": 0.5}),
        ):
            with pytest.MonkeyPatch.context() as patched:
                for name, value in constants.items():
                    patched.setattr(belle2, name, value)
                workload = Belle2Workload(
                    files, seed=6, files_per_run=files_per_run
                )
                for index in range(50):
                    fids, rb, wb = workload.run_arrays(index)
                    ops = scalar_run(workload, index)
                    assert fids.tolist() == [op.fid for op in ops]
                    assert rb.tolist() == [op.rb for op in ops]
                    assert wb.tolist() == [op.wb for op in ops]

    @given(
        start=st.integers(0, 10**6),
        count=st.integers(1, 100),
        files_per_run=st.integers(1, 8),
        burst_range=st.sampled_from(((10, 20), (1, 3), (7, 7))),
    )
    @settings(max_examples=40, deadline=None)
    def test_a_block_of_runs_is_its_runs_concatenated(
        self, start, count, files_per_run, burst_range
    ):
        workload = Belle2Workload(
            belle2_file_population(seed=5), seed=6,
            files_per_run=files_per_run,
        )
        with patch.multiple(
            belle2, BURST_RANGE=burst_range, WRITE_PROBABILITY=0.3
        ):
            *block, counts = workload.runs_arrays(start, count)
            singles = [
                workload.run_arrays(index)
                for index in range(start, start + count)
            ]
        assert counts == [len(fids) for fids, _, _ in singles]
        for column, parts in zip(block, zip(*singles)):
            joined = np.concatenate(parts)
            assert column.dtype == joined.dtype == np.int64
            assert np.array_equal(column, joined)
