"""In-memory message transports with accounted latency and bounded queues.

The paper's agents talk over a real network; here delivery is immediate but
every message is charged the configured one-way latency (default 3 ms, the
paper's measured average for telemetry transfer) into a running total that
the overhead study reports.

Two channels are provided:

* :class:`InMemoryTransport` -- the plain FIFO the ordinary control plane
  uses.  Optionally bounded (``maxsize``): a full queue sheds per the
  configured policy instead of growing without limit, so even non-QoS
  runs cannot strand the process in an allocation death spiral.
* :class:`BoundedTransport` -- the QoS channel: a required capacity plus
  per-priority lanes (:class:`~repro.agents.qos.Priority`), so layout
  commands are delivered before movement records before telemetry, and
  shedding under pressure evicts the lowest-priority traffic first.

``send`` returns ``True`` when the message was enqueued and ``False``
when it was shed or rejected -- the backpressure signal monitoring
agents use to coalesce instead of silently losing telemetry.
"""

from __future__ import annotations

from collections import deque

from repro.agents.qos import Priority, classify
from repro.errors import AgentError, TransportError

#: shed policies a bounded queue may apply when full
SHED_POLICIES = ("drop-oldest", "drop-newest", "reject")


class InMemoryTransport:
    """FIFO channel between the target system and Geomancy."""

    def __init__(
        self,
        latency_s: float = 0.003,
        *,
        maxsize: int | None = None,
        policy: str = "drop-oldest",
    ) -> None:
        if latency_s < 0:
            raise AgentError(f"latency must be non-negative, got {latency_s}")
        if maxsize is not None and maxsize < 1:
            raise TransportError(
                f"maxsize must be >= 1 or None, got {maxsize}"
            )
        if policy not in SHED_POLICIES:
            raise TransportError(
                f"policy must be one of {SHED_POLICIES}, got {policy!r}"
            )
        self.latency_s = float(latency_s)
        self.maxsize = int(maxsize) if maxsize is not None else None
        self.policy = policy
        self._queue: deque = deque()
        self.messages_sent = 0
        self.total_latency_s = 0.0
        #: messages evicted or refused because the queue was full
        self.shed = 0
        #: sends refused with backpressure (``reject``/``drop-newest``)
        self.rejected = 0
        #: high-water mark of the pending queue
        self.peak_pending = 0
        #: optional :class:`~repro.observability.provenance.CausalContext`;
        #: when attached, messages this transport *evicts* have their
        #: trace ids resolved as ``queue-shed`` (refused offers return
        #: ``False`` and stay the sender's responsibility)
        self.causal = None

    def _resolve_causal(self, message, outcome: str) -> None:
        if self.causal is not None:
            self.causal.resolve(getattr(message, "trace_id", None), outcome)

    def _enqueue(self, message) -> bool:
        """Queue ``message``, shedding per policy when full.

        Returns whether the *offered* message was enqueued; a
        ``drop-oldest`` shed evicts queued traffic instead, so the offer
        itself still succeeds (the sender is not backpressured).
        """
        if self.maxsize is not None and len(self._queue) >= self.maxsize:
            if self.policy == "drop-oldest":
                evicted = self._queue.popleft()
                self.shed += 1
                self._resolve_causal(evicted, "queue-shed")
            else:  # drop-newest / reject: the new message is refused
                self.shed += 1
                self.rejected += 1
                return False
        self._queue.append(message)
        if len(self._queue) > self.peak_pending:
            self.peak_pending = len(self._queue)
        return True

    def send(self, message) -> bool:
        """Enqueue a message, charging one latency unit.

        Returns ``False`` when a bounded queue refused the message
        (``drop-newest``/``reject`` policies) -- the sender's cue to
        coalesce or down-sample; ``True`` otherwise.
        """
        self.messages_sent += 1
        self.total_latency_s += self.latency_s
        return self._enqueue(message)

    def receive(self):
        """Pop the oldest pending message."""
        if not self._queue:
            raise AgentError("no pending messages")
        return self._queue.popleft()

    def receive_all(self) -> list:
        """Drain every pending message in order."""
        drained = list(self._queue)
        self._queue.clear()
        return drained

    @property
    def pending(self) -> int:
        return len(self._queue)

    def iter_pending(self):
        """The pending messages, in the order a drain would deliver them."""
        return iter(self._queue)


class BoundedTransport(InMemoryTransport):
    """Priority-laned bounded channel for the QoS control plane.

    ``capacity`` bounds the *total* queued messages across lanes.  Each
    message is classified (:func:`~repro.agents.qos.classify`) into a
    lane; draining always serves higher-priority lanes first (FIFO
    within a lane).  When full:

    * ``drop-oldest`` evicts the oldest message of the lowest-priority
      non-empty lane -- telemetry sheds before movement records before
      control, and a layout command can displace queued telemetry;
    * ``drop-newest`` refuses the offer unless a strictly lower-priority
      message can be evicted instead;
    * ``reject`` refuses any offer that does not fit, full stop, and
      relies on sender backpressure.
    """

    def __init__(
        self,
        latency_s: float = 0.003,
        *,
        capacity: int,
        policy: str = "drop-oldest",
    ) -> None:
        super().__init__(latency_s, maxsize=capacity, policy=policy)
        self._lanes: dict[int, deque] = {
            int(priority): deque() for priority in Priority
        }
        # Lane order is fixed at construction; resolving it per send
        # (sorting the dict on every enqueue/evict/drain) showed up on
        # the saturation harness profile, so precompute both walks and
        # track the pending total as a counter instead of re-summing.
        self._lane_order: tuple[int, ...] = tuple(sorted(self._lanes))
        self._lane_order_desc: tuple[int, ...] = tuple(
            reversed(self._lane_order)
        )
        self._pending_total = 0
        #: messages shed per priority class
        self.shed_by_priority: dict[int, int] = {
            int(priority): 0 for priority in Priority
        }

    @property
    def capacity(self) -> int:
        return self.maxsize  # type: ignore[return-value]

    def _evict_lowest(self, below: int | None = None) -> bool:
        """Drop the oldest message of the lowest-priority non-empty lane.

        ``below`` restricts eviction to lanes strictly lower-priority
        (greater value) than the given class.  Returns whether a message
        was evicted.
        """
        for priority in self._lane_order_desc:
            if below is not None and priority <= below:
                continue
            lane = self._lanes[priority]
            if lane:
                evicted = lane.popleft()
                self._pending_total -= 1
                self.shed += 1
                self.shed_by_priority[priority] += 1
                self._resolve_causal(evicted, "queue-shed")
                return True
        return False

    def _enqueue(self, message) -> bool:
        priority = int(classify(message))
        if self._pending_total >= self.maxsize:
            if self.policy == "drop-oldest":
                if not self._evict_lowest():  # pragma: no cover - capacity>=1
                    return False
            elif self.policy == "drop-newest":
                # A higher-priority offer may displace queued
                # lower-priority traffic; otherwise refuse the new one.
                if not self._evict_lowest(below=priority):
                    self.shed += 1
                    self.rejected += 1
                    self.shed_by_priority[priority] += 1
                    return False
            else:  # reject
                self.shed += 1
                self.rejected += 1
                self.shed_by_priority[priority] += 1
                return False
        self._lanes[priority].append(message)
        self._pending_total += 1
        if self._pending_total > self.peak_pending:
            self.peak_pending = self._pending_total
        return True

    def receive(self):
        for priority in self._lane_order:
            lane = self._lanes[priority]
            if lane:
                self._pending_total -= 1
                return lane.popleft()
        raise AgentError("no pending messages")

    def receive_all(self) -> list:
        drained: list = []
        for priority in self._lane_order:
            lane = self._lanes[priority]
            drained.extend(lane)
            lane.clear()
        self._pending_total = 0
        return drained

    @property
    def pending(self) -> int:
        return self._pending_total

    def iter_pending(self):
        for priority in self._lane_order:
            yield from self._lanes[priority]

    def pending_by_priority(self) -> dict[int, int]:
        return {
            priority: len(lane) for priority, lane in self._lanes.items()
        }
