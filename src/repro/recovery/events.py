"""Structured recovery telemetry: the run's one event history.

:class:`EventLog` keeps guardrail trips, checkpoint commits, journal
rollbacks, stranded-file rescues and resumes as typed :class:`Event`
records in an append-only log that checkpoints carry (``events``,
``of_kind``, ``state_dict``/``load_state_dict``).  Everything else a run
could report as an event is a tally its layer already keeps (see
DESIGN.md "Observability architecture").
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Event:
    """One structured occurrence.

    ``kind`` is a stable machine-readable tag (e.g. ``checkpoint-saved``,
    ``guardrail-trip``, ``rollback``); ``detail`` carries kind-specific,
    JSON-serializable context.  ``t`` is simulated seconds; ``step`` the
    control-loop run index (0 when not applicable).
    """

    kind: str
    t: float
    step: int
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "t": self.t,
            "step": self.step,
            "detail": dict(self.detail),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Event":
        return cls(
            kind=str(raw["kind"]),
            t=float(raw["t"]),
            step=int(raw["step"]),
            detail=dict(raw.get("detail", {})),
        )


class EventLog:
    """Append-only log of recovery events."""

    def __init__(self) -> None:
        self._events: list[Event] = []

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    @property
    def events(self) -> tuple[Event, ...]:
        return tuple(self._events)

    def emit(self, kind: str, *, t: float, step: int, **detail) -> Event:
        """Record a new event."""
        event = Event(kind=kind, t=float(t), step=int(step), detail=detail)
        self._events.append(event)
        return event

    def of_kind(self, kind: str) -> tuple[Event, ...]:
        return tuple(e for e in self._events if e.kind == kind)

    def state_dict(self) -> dict:
        return {"events": [e.to_dict() for e in self._events]}

    def load_state_dict(self, state: dict) -> None:
        """Restore the log's contents."""
        self._events = [Event.from_dict(raw) for raw in state["events"]]
