"""Structured recovery telemetry -- a recorded view over the event bus.

:class:`EventLog` is a recording facade over an
:class:`~repro.observability.events.EventBus`: every ``emit`` publishes
a plain bus :class:`~repro.observability.events.Event` (guardrail trips,
checkpoint commits, journal rollbacks, stranded-file rescues), so the
bus history holds recovery traffic alongside fault and movement events,
and keeps it in an append-only log that checkpoints carry
(``events``, ``of_kind``, ``state_dict``/``load_state_dict``).

By default an ``EventLog`` bridges to the *installed* observability
bus (see :func:`repro.observability.get_observability`), which is a
no-op collector unless a run enabled observability; pass ``bus=`` to
wire it to a specific one.
"""

from __future__ import annotations

from repro.observability import get_observability
from repro.observability.events import Event, EventBus


class EventLog:
    """Append-only log of recovery events, mirrored onto an event bus."""

    def __init__(self, bus: EventBus | None = None) -> None:
        self._events: list[Event] = []
        self.bus = bus if bus is not None else get_observability().bus

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    @property
    def events(self) -> tuple[Event, ...]:
        return tuple(self._events)

    def emit(self, kind: str, *, t: float, step: int, **detail) -> Event:
        """Record a new event and publish it on the attached bus."""
        event = Event(kind=kind, t=float(t), step=int(step), detail=detail)
        self._events.append(event)
        self.bus.publish(event)
        return event

    def of_kind(self, kind: str) -> tuple[Event, ...]:
        return tuple(e for e in self._events if e.kind == kind)

    def state_dict(self) -> dict:
        return {"events": [e.to_dict() for e in self._events]}

    def load_state_dict(self, state: dict) -> None:
        """Restore the log's contents.

        Restored events are *not* re-published: a resume must not
        double-count trips or checkpoints on the bus.
        """
        self._events = [Event.from_dict(raw) for raw in state["events"]]
