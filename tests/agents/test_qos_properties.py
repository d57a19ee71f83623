"""Property tests (Hypothesis) for the QoS invariants.

Token bucket: never grants more than ``burst + rate * window`` over any
window, and conserves tokens exactly (granted + remaining == initial +
refilled).  Bounded queues: length never exceeds capacity, offered ==
delivered + shed + still-pending, and draining preserves priority order.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.agents.messages import LayoutCommand, TelemetryBatch  # noqa: E402
from repro.agents.qos import Priority, TokenBucket, classify  # noqa: E402
from repro.agents.transport import (  # noqa: E402
    SHED_POLICIES,
    Transport,
)
from repro.replaydb.records import AccessRecord  # noqa: E402


def tokens_at(bucket, now):
    """The bucket's level once refilled to ``now``."""
    bucket.refill(now)
    return bucket.tokens


def access(device="var", fid=1):
    return AccessRecord(
        fid=fid, fsid=0, device=device, path="p", rb=1000, wb=0,
        ots=10, otms=0, cts=11, ctms=0,
    )


def message(kind: int, t: float):
    """kind 0 -> control, 1 -> telemetry, 2 -> garbage."""
    if kind == 0:
        return LayoutCommand(layout={}, issued_at=t)
    if kind == 1:
        return TelemetryBatch(device="var", records=(access(),), sent_at=t)
    return f"garbage@{t}"


# -- token bucket --------------------------------------------------------

requests = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=20.0),   # cost
        st.floats(min_value=0.0, max_value=5.0),    # time step forward
    ),
    min_size=1,
    max_size=50,
)


@given(
    rate=st.floats(min_value=0.1, max_value=100.0),
    burst=st.floats(min_value=0.5, max_value=50.0),
    reqs=requests,
)
@settings(max_examples=200, deadline=None)
def test_bucket_never_exceeds_rate_over_any_window(rate, burst, reqs):
    bucket = TokenBucket(rate, burst)
    now = 0.0
    grants: list[tuple[float, float]] = []  # (time, cost granted)
    for cost, dt in reqs:
        now += dt
        if bucket.try_acquire(cost, now):
            grants.append((now, cost))
    # Over ANY window [t0, t1] the grants are bounded by the burst plus
    # what the bucket could have refilled during the window.
    for i, (t0, _) in enumerate(grants):
        total = 0.0
        for t1, cost in grants[i:]:
            total += cost
            assert total <= burst + rate * (t1 - t0) + 1e-6


@given(
    rate=st.floats(min_value=0.1, max_value=100.0),
    burst=st.floats(min_value=0.5, max_value=50.0),
    reqs=requests,
)
@settings(max_examples=200, deadline=None)
def test_bucket_conserves_tokens(rate, burst, reqs):
    bucket = TokenBucket(rate, burst)
    now = 0.0
    refilled = 0.0
    level = burst
    for cost, dt in reqs:
        now += dt
        before = tokens_at(bucket, now)
        # Track the refill the bucket itself applied (capped at burst).
        refilled += before - level
        level = before
        if bucket.try_acquire(cost, now):
            level -= cost
    assert bucket.granted == pytest.approx(
        burst + refilled - bucket.tokens, abs=1e-6
    )
    assert 0.0 <= bucket.tokens <= burst


@given(
    rate=st.floats(min_value=0.1, max_value=100.0),
    burst=st.floats(min_value=1.0, max_value=50.0),
    reserve_frac=st.floats(min_value=0.0, max_value=0.9),
    reqs=requests,
)
@settings(max_examples=100, deadline=None)
def test_bucket_respects_reserve_floor(rate, burst, reserve_frac, reqs):
    bucket = TokenBucket(rate, burst)
    reserve = reserve_frac * burst
    now = 0.0
    for cost, dt in reqs:
        now += dt
        granted = bucket.try_acquire(cost, now, reserve=reserve)
        if granted:
            assert bucket.tokens >= reserve - 1e-9


# -- bounded queues ------------------------------------------------------

offers = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),      # message kind
        st.booleans(),                              # drain one first?
    ),
    min_size=1,
    max_size=80,
)


@given(
    capacity=st.integers(min_value=1, max_value=8),
    policy=st.sampled_from(SHED_POLICIES),
    ops=offers,
)
@settings(max_examples=200, deadline=None)
def test_bounded_queue_invariants(capacity, policy, ops):
    transport = Transport(capacity=capacity, policy=policy, lane_of=classify)
    offered = 0
    refused = 0
    received = 0
    t = 0.0
    for kind, drain_first in ops:
        if drain_first and transport.pending:
            transport.receive()
            received += 1
        t += 1.0
        offered += 1
        if transport.send(message(kind, t)) is False:
            refused += 1
        assert transport.pending <= capacity
    # Conservation: every offer was delivered, refused at the door,
    # evicted after queueing, or is still pending.
    evicted = transport.shed - refused
    assert offered == received + refused + evicted + transport.pending
    assert transport.rejected == refused


@given(
    capacity=st.integers(min_value=1, max_value=8),
    policy=st.sampled_from(SHED_POLICIES),
    ops=offers,
)
@settings(max_examples=200, deadline=None)
def test_bounded_queue_priority_ordering(capacity, policy, ops):
    transport = Transport(capacity=capacity, policy=policy, lane_of=classify)
    t = 0.0
    for kind, _ in ops:
        t += 1.0
        transport.send(message(kind, t))
    drained = transport.receive_all()
    priorities = [int(classify(m)) for m in drained]
    assert priorities == sorted(priorities)
    # FIFO within each priority class (timestamps increase).
    for priority in set(priorities):
        times = [
            m.issued_at if isinstance(m, LayoutCommand) else
            m.sent_at if isinstance(m, TelemetryBatch) else
            float(str(m).split("@")[1])
            for m in drained
            if int(classify(m)) == priority
        ]
        assert times == sorted(times)


@given(
    maxsize=st.integers(min_value=1, max_value=8),
    policy=st.sampled_from(SHED_POLICIES),
    n=st.integers(min_value=1, max_value=60),
)
@settings(max_examples=100, deadline=None)
def test_plain_bounded_fifo_conserves(maxsize, policy, n):
    transport = Transport(capacity=maxsize, policy=policy)
    accepted = 0
    for i in range(n):
        if transport.send(i):
            accepted += 1
        assert transport.pending <= maxsize
    drained = transport.receive_all()
    assert drained == sorted(drained)  # FIFO survivors keep send order
    # Conservation: offered == delivered + shed (refusals count as shed).
    assert n == len(drained) + transport.shed
    assert accepted == len(drained) + (transport.shed - transport.rejected)
