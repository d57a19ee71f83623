"""Tests for the transport's bound: capacity, shed policies, priority lanes."""

import pytest

from repro.agents.messages import LayoutCommand, TelemetryBatch
from repro.agents.qos import Priority, classify
from repro.agents.transport import Transport
from repro.errors import TransportError
from repro.faults.chaos_transport import FaultStage
from repro.replaydb.records import AccessRecord


def access(device="var", fid=1, t=10):
    return AccessRecord(
        fid=fid, fsid=0, device=device, path="p", rb=1000, wb=0,
        ots=t, otms=0, cts=t + 1, ctms=0,
    )


def batch(device="var", t=1.0, tenant="default"):
    return TelemetryBatch(
        device=device, records=(access(device),), sent_at=t, tenant=tenant
    )


def laned(**kwargs):
    return Transport(lane_of=classify, **kwargs)


def lossless(seed, **bound):
    """A channel carrying a fault stage that (at rate 0) never fires."""
    return Transport(faults=FaultStage(seed=seed), **bound)


class TestIterPending:
    @pytest.mark.parametrize(
        "transport",
        [
            Transport(),
            laned(capacity=4),
            Transport(faults=FaultStage(delay_rate=0.5, seed=1)),
        ],
        ids=["fifo", "bounded", "chaos"],
    )
    def test_walks_what_a_drain_would_deliver(self, transport):
        for i in range(3):
            transport.send(batch(t=float(i)))
            transport.send(LayoutCommand(layout={}, issued_at=float(i)))
        peeked = list(transport.iter_pending())
        assert len(peeked) == transport.pending
        assert peeked == transport.receive_all()


class TestBoundedFifo:
    def test_unbounded_by_default(self):
        transport = Transport()
        for i in range(1000):
            assert transport.send(i) is True
        assert transport.pending == 1000
        assert transport.shed == 0

    def test_invalid_maxsize_and_policy_rejected(self):
        with pytest.raises(TransportError):
            Transport(capacity=0)
        with pytest.raises(TransportError):
            Transport(policy="drop-random")

    def test_drop_oldest_evicts_head(self):
        transport = Transport(capacity=2, policy="drop-oldest")
        assert transport.send("a") is True
        assert transport.send("b") is True
        assert transport.send("c") is True  # the offer itself succeeds
        assert transport.receive_all() == ["b", "c"]
        assert transport.shed == 1
        assert transport.rejected == 0

    def test_drop_newest_refuses_offer(self):
        transport = Transport(capacity=2, policy="drop-newest")
        transport.send("a")
        transport.send("b")
        assert transport.send("c") is False
        assert transport.receive_all() == ["a", "b"]
        assert transport.shed == 1
        assert transport.rejected == 1

    def test_reject_refuses_offer(self):
        transport = Transport(capacity=1, policy="reject")
        assert transport.send("a") is True
        assert transport.send("b") is False
        assert transport.pending == 1

    def test_peak_pending_high_water_mark(self):
        transport = Transport()
        for i in range(5):
            transport.send(i)
        transport.receive_all()
        transport.send("x")
        assert transport.peak_pending == 5

    def test_len_never_exceeds_maxsize(self):
        transport = Transport(capacity=3)
        for i in range(50):
            transport.send(i)
            assert transport.pending <= 3


class TestBoundedPriority:
    def test_priority_drain_order(self):
        transport = laned(capacity=10)
        transport.send(batch(t=1.0))
        transport.send(LayoutCommand(layout={}, issued_at=2.0))
        transport.send(batch(t=3.0))
        first = transport.receive()
        assert isinstance(first, LayoutCommand)
        rest = transport.receive_all()
        assert [type(m).__name__ for m in rest] == [
            "TelemetryBatch", "TelemetryBatch",
        ]

    def test_fifo_within_a_lane(self):
        transport = laned(capacity=10)
        transport.send(batch(t=1.0))
        transport.send(batch(t=2.0))
        drained = transport.receive_all()
        assert [m.sent_at for m in drained] == [1.0, 2.0]

    def test_drop_oldest_evicts_lowest_priority_first(self):
        transport = laned(capacity=2)
        transport.send(LayoutCommand(layout={}, issued_at=1.0))
        transport.send(batch(t=2.0))
        # Full; a new control message displaces the queued telemetry.
        assert transport.send(LayoutCommand(layout={}, issued_at=3.0)) is True
        drained = transport.receive_all()
        assert all(isinstance(m, LayoutCommand) for m in drained)
        assert transport.shed_by_priority[int(Priority.TELEMETRY)] == 1

    def test_drop_newest_refuses_equal_priority_but_yields_to_higher(self):
        transport = laned(capacity=1, policy="drop-newest")
        transport.send(batch(t=1.0))
        assert transport.send(batch(t=2.0)) is False  # no lower lane to evict
        assert (
            transport.send(LayoutCommand(layout={}, issued_at=3.0)) is True
        )
        assert isinstance(transport.receive(), LayoutCommand)

    def test_reject_refuses_even_control(self):
        transport = laned(capacity=1, policy="reject")
        transport.send(batch(t=1.0))
        assert (
            transport.send(LayoutCommand(layout={}, issued_at=2.0)) is False
        )

    def test_capacity_bounds_total_across_lanes(self):
        transport = laned(capacity=4)
        for t in range(20):
            transport.send(batch(t=float(t + 1)))
            transport.send(LayoutCommand(layout={}, issued_at=float(t + 1)))
            assert transport.pending <= 4

    def test_pending_by_priority(self):
        transport = laned(capacity=10)
        transport.send(batch(t=1.0))
        transport.send(LayoutCommand(layout={}, issued_at=1.0))
        by_priority = transport.pending_by_priority()
        assert by_priority[int(Priority.CONTROL)] == 1
        assert by_priority[int(Priority.TELEMETRY)] == 1

    def test_capacity_required_and_validated(self):
        with pytest.raises(TransportError):
            laned(capacity=0)


class TestChaosBounded:
    def test_chaos_transport_honors_maxsize(self):
        transport = lossless(seed=3, capacity=2, policy="drop-oldest")
        for t in range(10):
            assert transport.send(batch(t=float(t + 1))) is True
            assert transport.pending <= 2
        assert transport.shed == 8

    def test_chaos_reject_backpressures_sender(self):
        transport = lossless(seed=3, capacity=1, policy="reject")
        assert transport.send(batch(t=1.0)) is True
        assert transport.send(batch(t=2.0)) is False

    def test_chaos_delayed_release_respects_bound(self):
        transport = Transport(
            faults=FaultStage(seed=5, delay_rate=1.0),
            capacity=2, policy="drop-oldest",
        )
        # Every send is held back one drain; releases re-enter through
        # the bounded enqueue path.
        for t in range(6):
            transport.send(batch(t=float(t + 1)))
        drained = transport.receive_all()
        assert transport.pending <= 2
        assert len(drained) <= 2
