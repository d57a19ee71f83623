"""Unified observability: metrics, events, logs, tracing.

One :class:`Observability` object bundles the two always-on telemetry
surfaces the stack instruments against:

* :class:`~repro.observability.metrics.MetricsRegistry` -- counters,
  gauges, fixed-bucket histograms (Prometheus text + JSONL snapshots);
* :class:`~repro.observability.events.EventBus` -- typed structured
  events in one bounded history (the recovery ``EventLog`` rides on it).

Timing is opt-in per run and comes from outside the code it times: a
:class:`~repro.observability.tracing.Recorder` wraps the public methods
of a run's objects and charges them to layers (``repro run --trace``).
The per-function view is the stdlib's: ``python -m cProfile -s
cumulative -m repro run --scale test``.

Instrumented modules resolve the *installed* instance through
:func:`get_observability` at construction time and cache the handles
they need.  The process default is a **disabled** instance whose handles
are shared no-ops, so an uninstrumented run pays a few no-op method
calls and nothing else -- and, because no instrument ever touches an RNG
or the simulated clock, experiment outputs are bit-for-bit identical
with observability on or off.

Enable per run with::

    with observability.use(Observability()) as obs:
        ...build and drive the system...
        print(obs.metrics.render_prometheus())
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.observability.events import Event, EventBus
from repro.observability.metrics import DEFAULT_BUCKETS, MetricsRegistry

__all__ = [
    "DEFAULT_BUCKETS",
    "Event",
    "EventBus",
    "MetricsRegistry",
    "Observability",
    "get_observability",
    "install",
    "uninstall",
    "use",
]


class Observability:
    """Metrics + event bus behind one enable switch."""

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self.metrics = MetricsRegistry(enabled=self.enabled)
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

    Components cache their metric handles at construction, so install the
    instance *before* building the system it should observe.
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
