"""The QoS hot-path memoizations must be invisible.

:func:`repro.agents.qos.classify` caches per message *type* and
:class:`~repro.agents.transport.Transport` tracks its pending
total as a counter with precomputed lane walks.  Both are pure
speedups: these tests pin the memoized paths to their from-scratch
equivalents across every message kind and queue trajectory the control
plane produces.
"""

import pytest

from repro.agents.messages import LayoutCommand, TelemetryBatch
from repro.agents.qos import (
    _CLASSIFY_CACHE,
    Priority,
    _classify_uncached,
    classify,
)
from repro.agents.transport import Transport
from repro.replaydb.records import AccessRecord, MovementRecord


def access(fid=1, t=10):
    return AccessRecord(
        fid=fid, fsid=0, device="var", path="p", rb=1000, wb=0,
        ots=t, otms=0, cts=t + 1, ctms=0,
    )


def batch(n=1, t=1.0):
    return TelemetryBatch(
        device="var",
        records=tuple(access(fid=i) for i in range(n)),
        sent_at=t,
    )


def movement(t=1.0):
    return MovementRecord(
        timestamp=t, fid=1, src_device="var", dst_device="file0",
        bytes_moved=10, duration=0.1, succeeded=True,
    )


MESSAGES = [
    LayoutCommand(layout={}, issued_at=0.0),
    movement(),
    [movement(), movement()],
    (movement(),),
    batch(),
    "corrupt",
    None,
    [],
    ["not", "movements"],
    [movement(), "not a movement"],
    42,
    object(),
]


class TestClassifyMemo:
    def test_memoized_matches_uncached_for_every_kind(self):
        for message in MESSAGES:
            expected = _classify_uncached(message)
            # Twice: once potentially filling the cache, once hitting it.
            assert classify(message) is expected
            assert classify(message) is expected

    def test_containers_never_cached(self):
        classify([movement()])
        classify((movement(),))
        classify(["garbage"])
        assert list not in _CLASSIFY_CACHE
        assert tuple not in _CLASSIFY_CACHE
        # A movement-list still classifies by content, not by a stale
        # cache entry for the container type.
        assert classify([movement()]) is Priority.MOVEMENT
        assert classify(["garbage"]) is Priority.TELEMETRY

    def test_scalar_types_are_cached_once(self):
        classify(movement())
        assert _CLASSIFY_CACHE[MovementRecord] is Priority.MOVEMENT
        classify(batch())
        assert _CLASSIFY_CACHE[TelemetryBatch] is Priority.TELEMETRY


def check_counter(transport):
    assert transport.pending == sum(
        transport.pending_by_priority().values()
    )


@pytest.mark.parametrize("policy", ["drop-oldest", "drop-newest", "reject"])
def test_pending_counter_tracks_lanes_through_any_trajectory(policy):
    transport = Transport(capacity=4, policy=policy, lane_of=classify)
    script = [
        batch(), movement(), batch(), LayoutCommand(layout={}, issued_at=0.0),
        batch(), movement(), "garbage", LayoutCommand(layout={}, issued_at=1.0),
    ]
    for i, message in enumerate(script):
        transport.send(message)
        check_counter(transport)
        if i % 3 == 2 and transport.pending:
            transport.receive()
            check_counter(transport)
    assert transport.pending <= transport.capacity
    drained = transport.receive_all()
    check_counter(transport)
    assert transport.pending == 0
    # Drain order served the higher-priority lanes first.
    priorities = [int(classify(m)) for m in drained]
    assert priorities == sorted(priorities)


def test_peak_pending_and_eviction_accounting():
    transport = Transport(capacity=2, lane_of=classify)
    transport.send(batch())
    transport.send(batch())
    check_counter(transport)
    assert transport.peak_pending == 2
    # Full queue: a control message evicts the oldest telemetry.
    assert transport.send(LayoutCommand(layout={}, issued_at=0.0))
    check_counter(transport)
    assert transport.pending == 2
    assert transport.shed_by_priority[int(Priority.TELEMETRY)] == 1
    assert isinstance(transport.receive(), LayoutCommand)
    check_counter(transport)
