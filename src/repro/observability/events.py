"""The structured event bus: one bounded history for the whole stack.

Fault injections, guardrail trips, circuit-breaker state changes,
checkpoint commits, journal rollbacks and file movements all flow through
one :class:`EventBus` as typed :class:`Event` records, so any consumer --
the recovery :class:`~repro.recovery.events.EventLog`, the instrumented
run's event export, a test assertion -- reads the system from the same
stream, in publish order, after the fact (the history is bounded by
``max_history``).

This module is dependency-free (stdlib only) so that every layer of the
stack can import it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Event:
    """One structured occurrence.

    ``kind`` is a stable machine-readable tag (e.g. ``checkpoint-saved``,
    ``guardrail-trip``, ``fault-outage``, ``circuit-open``); ``detail``
    carries kind-specific, JSON-serializable context.  ``t`` is simulated
    seconds; ``step`` the control-loop run index (0 when not applicable).
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


class EventBus:
    """Publish-ordered event history, bounded by ``max_history``."""

    def __init__(self, *, max_history: int | None = None) -> None:
        if max_history is not None and max_history < 0:
            raise ValueError(
                f"max_history must be >= 0 or None, got {max_history}"
            )
        self.max_history = max_history
        self._history: list[Event] = []
        self.published = 0

    # -- publishing ------------------------------------------------------
    def publish(self, event: Event) -> Event:
        """Record ``event``."""
        self.published += 1
        self._history.append(event)
        if self.max_history is not None and len(self._history) > self.max_history:
            del self._history[: len(self._history) - self.max_history]
        return event

    def emit(self, kind: str, *, t: float, step: int, **detail) -> Event:
        """Build and publish a new event."""
        return self.publish(
            Event(kind=kind, t=float(t), step=int(step), detail=detail)
        )

    # -- history ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._history)

    def __iter__(self):
        return iter(self._history)

    @property
    def history(self) -> tuple[Event, ...]:
        return tuple(self._history)

    def of_kind(self, kind: str) -> tuple[Event, ...]:
        return tuple(e for e in self._history if e.kind == kind)

