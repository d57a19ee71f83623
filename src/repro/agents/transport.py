"""The in-memory channel between the target system and Geomancy.

The paper's agents talk over a real network; here delivery is immediate but
every message is charged the configured one-way latency (default 3 ms, the
paper's measured average for telemetry transfer) into a running total that
the overhead study reports.

One :class:`Transport` serves every plane.  Three constructor arguments, free
to combine, say which: ``lane_of`` (the lane rule, message -> class, lower
drains first; without one every message shares lane 0 -- a FIFO is the
one-lane case, not a second code path), ``capacity`` (bounds the queued total;
a full queue sheds per ``policy``) and ``faults`` (a seeded lossy link in
front of the queue, :class:`~repro.faults.chaos_transport.FaultStage`).
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Callable

from repro.agents.deadletter import message_from_dict, message_to_dict
from repro.errors import AgentError, TransportError

#: what a full queue may do with an offer
SHED_POLICIES = ("drop-oldest", "drop-newest", "reject")

_COUNTERS = ("messages_sent", "total_latency_s", "shed", "rejected", "peak_pending")


class Transport:
    """Ordered lanes, an optional bound, an optional fault stage."""

    def __init__(
        self, latency_s: float = 0.003, *, capacity: int | None = None,
        policy: str = "drop-oldest",
        lane_of: Callable[[object], int] | None = None, faults=None,
    ) -> None:
        if latency_s < 0:
            raise AgentError(f"latency must be non-negative, got {latency_s}")
        if capacity is not None and capacity < 1:
            raise TransportError(f"capacity must be >= 1 or None, got {capacity}")
        if policy not in SHED_POLICIES:
            raise TransportError(f"policy must be in {SHED_POLICIES}, got {policy!r}")
        self.latency_s = float(latency_s)
        self.capacity = int(capacity) if capacity is not None else None
        self.policy = policy
        self.faults = faults
        self._lane_of = lane_of if lane_of is not None else lambda message: 0
        self._lanes: dict[int, deque] = {}
        #: lane keys seen so far, in drain order
        self._order: list[int] = []
        #: messages queued now, and the high-water mark of that
        self.pending = self.peak_pending = 0
        self.messages_sent = 0
        self.total_latency_s = 0.0
        #: messages evicted, or refused (``rejected``), because the queue was
        #: full -- in total and per class of the message lost
        self.shed = 0
        self.rejected = 0
        self.shed_by_priority: Counter = Counter()
        #: optional :class:`~repro.observability.provenance.CausalContext`:
        #: messages this channel *evicts* resolve as ``queue-shed`` (a refused
        #: offer returns ``False`` and stays the sender's responsibility)
        self.causal = None

    def _resolve_causal(self, message, outcome: str) -> None:
        if self.causal is not None:
            self.causal.resolve(getattr(message, "trace_id", None), outcome)

    def _evict(self, below: int | None) -> bool:
        """Drop the oldest message of the lowest class queued (and below ``below``)."""
        for key in reversed(self._order):
            if below is not None and key <= below:
                break
            if self._lanes[key]:
                self._resolve_causal(self._lanes[key].popleft(), "queue-shed")
                self.pending -= 1
                self.shed += 1
                self.shed_by_priority[key] += 1
                return True
        return False

    def _enqueue(self, message) -> bool:
        """Queue ``message``; returns whether the *offer* was accepted.

        A full queue makes room by evicting under ``drop-oldest`` (the sender is
        not backpressured), under ``drop-newest`` only at the cost of a strictly
        lower class than the offer's, and never under ``reject``.
        """
        key = self._lane_of(message)
        if self.capacity is not None and self.pending >= self.capacity:
            below = None if self.policy == "drop-oldest" else key
            if self.policy == "reject" or not self._evict(below):
                self.shed += 1
                self.rejected += 1
                self.shed_by_priority[key] += 1
                return False
        lane = self._lanes.get(key)
        if lane is None:
            lane = self._lanes[key] = deque()
            self._order = sorted(self._lanes)
        lane.append(message)
        self.pending += 1
        if self.pending > self.peak_pending:
            self.peak_pending = self.pending
        return True

    def send(self, message) -> bool:
        """Offer a message, charging one latency unit whether it arrives or not.

        ``False`` exactly when the offer was refused -- the backpressure signal
        monitoring agents coalesce on; what the fault stage loses still got sent.
        """
        self.messages_sent += 1
        self.total_latency_s += self.latency_s
        if self.faults is not None:
            arrives, message = self.faults.on_send(message, self.causal)
            if not arrives:
                return True
        return self._enqueue(message)

    def receive(self):
        """Pop the oldest pending message of the highest class."""
        for key in self._order:
            if self._lanes[key]:
                self.pending -= 1
                return self._lanes[key].popleft()
        raise AgentError("no pending messages")

    def receive_all(self) -> list:
        """Drain every pending message, highest class first."""
        drained = list(self.iter_pending())
        for lane in self._lanes.values():
            lane.clear()
        self.pending = 0
        if self.faults is not None:
            drained = self.faults.on_drain(drained)
            # Messages held back past this drain re-enter through the bound,
            # at no second latency charge, for the next one.
            while self.faults.held:
                message = self.faults.held.popleft()
                if not self._enqueue(message):
                    # No sender is left to backpressure: the chain ends here.
                    self._resolve_causal(message, "queue-shed")
        return drained

    def iter_pending(self):
        """The pending messages, in the order a drain would deliver them."""
        for key in self._order:
            yield from self._lanes[key]

    def pending_by_priority(self) -> dict[int, int]:
        return {key: len(lane) for key, lane in self._lanes.items()}

    def state_dict(self) -> dict:
        """Counters, queued messages and the fault stage's state, as JSON."""
        return {
            **{name: getattr(self, name) for name in _COUNTERS},
            "shed_by_priority": sorted(self.shed_by_priority.items()),
            "pending": [message_to_dict(m) for m in self.iter_pending()],
            "faults": self.faults.state_dict() if self.faults is not None else None,
        }

    def load_state_dict(self, state: dict) -> None:
        """Continue a fresh, same-configured channel from :meth:`state_dict`."""
        for message in map(message_from_dict, state["pending"]):
            self._enqueue(message)  # what this counts is overwritten below
        for name in _COUNTERS:
            setattr(self, name, state[name])
        self.shed_by_priority.update(dict(state["shed_by_priority"]))
        if self.faults is not None:
            self.faults.load_state_dict(state["faults"])
