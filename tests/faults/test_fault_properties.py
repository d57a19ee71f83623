"""Property tests: cluster invariants survive any injected fault sequence.

Hypothesis generates arbitrary fault schedules (outages, degradations,
transient or permanent) interleaved with arbitrary layout commands executed
through the transactional control agent, at arbitrary migration-failure
rates.  Whatever happens, no file may be lost or duplicated, no placement
may reference an unknown device, and no device may exceed its capacity.
"""

from unittest.mock import patch

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.agents import control as control_module
from repro.agents.control import ControlAgent
from repro.agents.messages import LayoutCommand
from repro.faults import health as health_module
from repro.faults.health import HealthTracker
from repro.faults.injector import FaultInjector
from repro.faults.invariants import cluster_invariant_violations
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.simulation.cluster import StorageCluster
from repro.simulation.device import DeviceSpec, StorageDevice
from repro.simulation.interference import ConstantLoad
from repro.simulation.network import TransferLink
from repro.workloads.files import FileSpec

GB = 10**9
DEVICES = ("a", "b", "c")
FIDS = (1, 2, 3, 4)


def build_cluster():
    devices = [
        StorageDevice(
            DeviceSpec(name=name, fsid=i, read_gbps=1.0 + i,
                       write_gbps=1.0 + i, capacity_bytes=20 * GB,
                       noise_sigma=0.0),
            ConstantLoad(0.0),
        )
        for i, name in enumerate(DEVICES)
    ]
    return StorageCluster(
        devices, link=TransferLink(bandwidth_gbps=2.0, latency_s=0.0)
    )


def make_files():
    return [FileSpec(fid, f"f{fid}", GB) for fid in FIDS]


fault_events = st.builds(
    FaultEvent,
    at=st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
    kind=st.sampled_from(["outage", "degrade"]),
    device=st.sampled_from(DEVICES),
    duration=st.one_of(
        st.none(), st.floats(min_value=1.0, max_value=20.0, allow_nan=False)
    ),
    factor=st.floats(min_value=0.05, max_value=0.95, allow_nan=False),
)

commands = st.lists(
    st.tuples(st.sampled_from(FIDS), st.sampled_from(DEVICES)),
    max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(
    events=st.lists(fault_events, max_size=6),
    moves=commands,
    failure_rate=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(min_value=0, max_value=3),
)
@patch.multiple(control_module, MAX_MOVE_RETRIES=2, RETRY_BACKOFF_S=1.0)
@patch.multiple(
    health_module, QUARANTINE_THRESHOLD=2, QUARANTINE_DURATION_S=30.0
)
def test_invariants_hold_under_any_fault_sequence(
    events, moves, failure_rate, seed
):
    cluster = build_cluster()
    files = make_files()
    for spec, device in zip(files, ["a", "a", "b", "c"]):
        cluster.add_file(spec.fid, spec.path, spec.size_bytes, device)
    injector = FaultInjector(
        cluster,
        FaultSchedule(events),
        migration_failure_rate=failure_rate,
        seed=seed,
    ).install()
    control = ControlAgent(cluster, health=HealthTracker())
    t = 0.0
    for fid, dst in moves:
        t += 5.0
        injector.advance(t)
        control.execute(LayoutCommand(layout={fid: dst}, issued_at=t))
        assert cluster_invariant_violations(cluster, files) == []
    # Let every remaining scheduled fault and recovery fire, then drain
    # any retries still backed off.
    injector.advance(10_000.0)
    control.execute(LayoutCommand(layout={}, issued_at=20_000.0))
    assert cluster_invariant_violations(cluster, files) == []
    # Conservation: exactly the four workload files exist, once each.
    assert sorted(cluster.layout()) == list(FIDS)


@settings(max_examples=25, deadline=None)
@given(
    moves=commands,
    failure_rate=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=5),
)
@patch.multiple(control_module, MAX_MOVE_RETRIES=1, RETRY_BACKOFF_S=1.0)
def test_failed_moves_always_roll_back(moves, failure_rate, seed):
    cluster = build_cluster()
    files = make_files()
    for spec in files:
        cluster.add_file(spec.fid, spec.path, spec.size_bytes, "a")
    FaultInjector(
        cluster, migration_failure_rate=failure_rate, seed=seed
    ).install()
    control = ControlAgent(cluster)
    t = 0.0
    for fid, dst in moves:
        t += 3.0
        before = dict(cluster.layout())
        records = control.execute(
            LayoutCommand(layout={fid: dst}, issued_at=t)
        )
        for record in records:
            if record.succeeded:
                assert cluster.file(record.fid).device == record.dst_device
            else:
                # Rollback: a failed move leaves the file where it was.
                assert cluster.file(record.fid).device == before[record.fid]
        assert cluster_invariant_violations(cluster, files) == []
