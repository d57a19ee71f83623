"""Two workloads interleaved access by access, against the scalar model.

Fig. 6 and the ``online_drift`` benchmark run a tuned and a competing
workload on one cluster, each runner on its own clock, alternating one
access of each (``WorkloadRunner.run_stream``).  Here the same interleave
runs on twin clusters: once through ``run_stream`` and the
``StorageDevice.serve`` kernel, once through the readable scalar model of
``tests/oracles/scalar_device.py``.  Records, both clocks, both RNG
streams of every device, crowding windows, ``DeviceStats``, the runners'
counters and the ReplayDB rows must come out bit for bit the same, also
when a device drops out mid-interleave.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.replaydb.db import ReplayDB
from repro.simulation.clock import SimulationClock
from repro.workloads.belle2 import Belle2Workload
from repro.workloads.files import belle2_file_population
from repro.workloads.interference import make_competing_workload
from repro.workloads.runner import WorkloadRunner
from tests.oracles import scalar_device
from tests.simulation.test_batch_equivalence import (
    device_fingerprint,
    make_cluster,
)


def build(seed: int, offset: float):
    """A cluster with a tuned runner (with a ReplayDB) and a competitor
    on its own clock started ``offset`` seconds later."""
    cluster = make_cluster(seed)
    names = cluster.device_names
    files = belle2_file_population(seed=seed)
    tuned = WorkloadRunner(
        cluster, Belle2Workload(files, seed=seed + 1), ReplayDB()
    )
    tuned.ensure_files_placed(
        {f.fid: names[f.fid % len(names)] for f in files}
    )
    dup_files, dup_workload = make_competing_workload(seed=seed + 99)
    competing = WorkloadRunner(
        cluster, dup_workload, clock=SimulationClock(offset)
    )
    competing.ensure_files_placed(
        {f.fid: names[(f.fid + 1) % len(names)] for f in dup_files}
    )
    return cluster, tuned, competing


def interleave(cluster, runners, stream, rounds, outage):
    """``rounds`` runs of each runner, one access of each in turn;
    ``outage = (device, off_step, on_step)`` flips a device offline and
    back between steps.  Returns each runner's records."""
    name, off_step, on_step = outage
    records = [[] for _ in runners]
    step = 0
    for _ in range(rounds):
        streams = [stream(runner) for runner in runners]
        progressed = True
        while progressed:
            progressed = False
            for out, source in zip(records, streams):
                step += 1
                if step == off_step:
                    cluster.set_device_online(name, False)
                if step == on_step:
                    cluster.set_device_online(name, True)
                record = next(source, None)
                if record is not None:
                    out.append(record)
                    progressed = True
    return records


class TestInterleavedStreams:
    @given(
        seed=st.integers(0, 20),
        offset=st.floats(0.0, 60.0, allow_nan=False),
        rounds=st.integers(1, 2),
        outage=st.tuples(
            st.sampled_from(["fast", "plain", "quiet"]),
            st.integers(1, 150),
            st.integers(1, 300),
        ),
    )
    @example(seed=3, offset=7.5, rounds=2, outage=("plain", 5, 120))
    @settings(max_examples=15, deadline=None)
    def test_run_stream_interleave_matches_the_scalar_model(
        self, seed, offset, rounds, outage
    ):
        cluster, tuned, competing = build(seed, offset)
        twin, twin_tuned, twin_competing = build(seed, offset)
        served = interleave(
            cluster, [tuned, competing], WorkloadRunner.run_stream,
            rounds, outage,
        )
        expected = interleave(
            twin, [twin_tuned, twin_competing], scalar_device.run_stream,
            rounds, outage,
        )
        assert served == expected
        for runner, reference in (
            (tuned, twin_tuned), (competing, twin_competing),
        ):
            assert runner.clock.now == reference.clock.now
            assert runner.next_run_index == reference.next_run_index == rounds
            assert runner.total_accesses == reference.total_accesses
            assert runner.failed_accesses == reference.failed_accesses
        assert tuned.db.recent_accesses(10**6) == (
            twin_tuned.db.recent_accesses(10**6)
        )
        for name in cluster.device_names:
            assert device_fingerprint(cluster.device(name)) == (
                device_fingerprint(twin.device(name))
            )
