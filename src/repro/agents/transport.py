"""The in-memory channel between the target system and Geomancy.

The paper's agents talk over a real network; here delivery is immediate but
every message is charged the configured one-way latency (default 3 ms, the
paper's measured average for telemetry transfer) into a running total that
the overhead study reports.

One :class:`Transport` serves every plane: a FIFO, optionally behind a
seeded lossy link (``faults``,
:class:`~repro.faults.chaos_transport.FaultStage`).
"""

from __future__ import annotations

from collections import deque

from repro.agents.messages import CorruptMessage, LayoutCommand, TelemetryBatch
from repro.errors import AgentError
from repro.replaydb.records import record_from_dict, record_to_dict

_COUNTERS = ("messages_sent", "total_latency_s")


def message_to_dict(message) -> dict:
    """JSON form of a control-plane message: the one codec for messages
    at rest, what a checkpointed :class:`Transport` carries."""
    if isinstance(message, TelemetryBatch):
        return {
            "device": message.device,
            "sent_at": message.sent_at,
            "records": [record_to_dict(r) for r in message.records],
        }
    if isinstance(message, LayoutCommand):
        return {
            "layout": {str(fid): dst for fid, dst in message.layout.items()},
            "issued_at": message.issued_at,
        }
    if isinstance(message, CorruptMessage):
        return {"corrupt": message.reason}
    raise AgentError(f"no JSON form for a {type(message).__name__} message")


def message_from_dict(raw: dict):
    """Inverse of :func:`message_to_dict`."""
    if "records" in raw:
        return TelemetryBatch(
            device=str(raw["device"]),
            records=tuple(record_from_dict(r) for r in raw["records"]),
            sent_at=float(raw["sent_at"]),
        )
    if "layout" in raw:
        return LayoutCommand(
            layout={int(fid): str(dst) for fid, dst in raw["layout"].items()},
            issued_at=float(raw["issued_at"]),
        )
    return CorruptMessage(reason=str(raw["corrupt"]))


class Transport:
    """A FIFO with latency accounting and an optional fault stage."""

    def __init__(self, latency_s: float = 0.003, *, faults=None) -> None:
        if latency_s < 0:
            raise AgentError(f"latency must be non-negative, got {latency_s}")
        self.latency_s = float(latency_s)
        self.faults = faults
        self._queue: deque = deque()
        self.messages_sent = 0
        self.total_latency_s = 0.0

    @property
    def pending(self) -> int:
        """Messages queued now."""
        return len(self._queue)

    def send(self, message) -> None:
        """Queue a message, charging one latency unit whether it arrives or not."""
        self.messages_sent += 1
        self.total_latency_s += self.latency_s
        if self.faults is not None:
            arrives, message = self.faults.on_send(message)
            if not arrives:
                return
        self._queue.append(message)

    def receive(self):
        """Pop the oldest pending message."""
        if not self._queue:
            raise AgentError("no pending messages")
        return self._queue.popleft()

    def receive_all(self) -> list:
        """Drain every pending message, oldest first."""
        drained = list(self._queue)
        self._queue.clear()
        if self.faults is not None:
            drained = self.faults.on_drain(drained)
            # Messages held back past this drain queue up, at no second
            # latency charge, for the next one.
            self._queue.extend(self.faults.held)
            self.faults.held.clear()
        return drained

    def state_dict(self) -> dict:
        """Counters, queued messages and the fault stage's state, as JSON."""
        return {
            **{name: getattr(self, name) for name in _COUNTERS},
            "pending": [message_to_dict(m) for m in self._queue],
            "faults": self.faults.state_dict() if self.faults is not None else None,
        }

    def load_state_dict(self, state: dict) -> None:
        """Continue a fresh, same-configured channel from :meth:`state_dict`."""
        self._queue = deque(map(message_from_dict, state["pending"]))
        for name in _COUNTERS:
            setattr(self, name, state[name])
        if self.faults is not None:
            self.faults.load_state_dict(state["faults"])
