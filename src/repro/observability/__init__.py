"""Unified observability: metrics, events, logs, tracing.

Metrics and timing are read from outside the code they describe:

* :mod:`~repro.observability.metrics` -- one table maps every Prometheus
  name to a tally a layer already keeps (the daemon's batches, the
  cluster's migrations ...) and renders it, when an export is written,
  as Prometheus text or a JSONL snapshot;
* :class:`~repro.observability.tracing.Recorder` -- opt-in per run, wraps
  the public methods of a run's objects and charges them to layers
  (``repro run --trace``).  The per-function view is the stdlib's:
  ``python -m cProfile -s cumulative -m repro run --scale test``.

The one surface code publishes to is the
:class:`~repro.observability.events.EventBus` of an :class:`Observability`
-- typed structured events in one bounded history (the recovery
``EventLog`` rides on it).  Modules that emit resolve the *installed*
instance through :func:`get_observability` at construction time.  The
process default is a **disabled** instance that keeps no history; no
event ever touches an RNG or the simulated clock, so experiment outputs
are bit-for-bit identical with observability on or off.

Enable per run with::

    with observability.use(Observability()) as obs:
        ...build and drive the system...
        print(len(obs.bus))
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.observability.events import Event, EventBus

__all__ = [
    "Event",
    "EventBus",
    "Observability",
    "get_observability",
    "install",
    "uninstall",
    "use",
]


class Observability:
    """The event bus behind one enable switch."""

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        # A disabled instance keeps no history: every default-constructed
        # EventLog bridges here, and the process-global default must not
        # accumulate events across runs.
        self.bus = EventBus(max_history=None if self.enabled else 0)

    def emit(self, kind: str, *, t: float, step: int, **detail) -> Event:
        return self.bus.emit(kind, t=t, step=step, **detail)


#: the process-wide disabled default; never mutated, always reusable
_DISABLED = Observability(enabled=False)
_current: Observability = _DISABLED


def get_observability() -> Observability:
    """The currently installed instance (a disabled no-op by default)."""
    return _current


def install(obs: Observability) -> Observability:
    """Install ``obs`` as the process-wide instance; returns the previous.

    Emitters resolve the instance at construction, so install it *before*
    building the system it should observe.
    """
    global _current
    previous = _current
    _current = obs
    return previous


def uninstall() -> None:
    """Restore the disabled default."""
    global _current
    _current = _DISABLED


@contextmanager
def use(obs: Observability):
    """Scoped :func:`install`: restores the previous instance on exit."""
    previous = install(obs)
    try:
        yield obs
    finally:
        install(previous)
