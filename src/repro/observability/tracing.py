"""Boundary tracing: a run's layers timed from outside, at public methods.

A :class:`Recorder` wraps every public method of one object *instance*
(:meth:`Recorder.wrap` sets instance attributes; the class and every
other instance stay as they were) and charges each call to the layer
that object belongs to.  Spans nest through one stack, so a span's
**self time** is its duration minus its child spans, and a layer's self
time is the sum over its spans: self times never overlap, so they add up
to the time spent inside wrapped calls, and what is left of the traced
wall is the caller's own (unattributed) time.  :func:`facade_layers`
maps the parts of a facade run onto layers.

Nothing is wrapped unless a run asks for a trace, so an untraced run
pays nothing, and a recorder never touches an RNG or the simulated
clock, so a traced run makes the same decisions as an untraced one.
Spans are kept for a Chrome-trace export (open it in
``chrome://tracing`` or https://ui.perfetto.dev) up to :data:`MAX_SPANS`;
later ones are counted as dropped while self times keep adding up.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from collections import Counter
from pathlib import Path

#: spans kept for the Chrome trace -- a long run must not eat the heap
MAX_SPANS = 200_000


class Recorder:
    """Self time, calls and spans per layer for one traced run."""

    def __init__(self) -> None:
        #: layer -> self seconds, in the order layers were first wrapped
        self.self_s: dict[str, float] = {}
        #: layer -> wrapped calls into it
        self.calls: Counter = Counter()
        #: ``(layer.method, layer, start, duration)`` per finished span
        self.spans: list[tuple[str, str, float, float]] = []
        self.dropped = 0
        #: wall seconds of the traced call (:meth:`measure`)
        self.wall_s = 0.0
        self._origin = time.perf_counter()
        #: child seconds of each open span, innermost last
        self._stack: list[float] = []
        self._wrapped: list[tuple[object, str]] = []

    def wrap(self, obj: object, layer: str) -> None:
        """Charge every public method of ``obj`` (this instance) to ``layer``."""
        self.self_s.setdefault(layer, 0.0)
        for name, _ in inspect.getmembers(type(obj), inspect.isfunction):
            if not name.startswith("_"):
                setattr(obj, name, self._timed(getattr(obj, name), layer, name))
                self._wrapped.append((obj, name))

    def _timed(self, inner, layer: str, name: str):
        label = f"{layer}.{name}"
        stack = self._stack

        def timed(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self.self_s[layer] += duration - stack.pop()
                self.calls[layer] += 1
                if stack:
                    stack[-1] += duration
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((label, layer, start, duration))
                else:
                    self.dropped += 1

        return timed

    def measure(self, fn):
        """Call ``fn()`` as the traced run, its wall in :attr:`wall_s`;
        every wrapped method is restored when it returns."""
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self.wall_s = time.perf_counter() - start
            for obj, name in self._wrapped:
                delattr(obj, name)
            self._wrapped.clear()

    def layer_rows(self) -> list[tuple[str, int | str, float]]:
        """``(layer, calls, self seconds)`` per layer, then the
        unattributed rest of :attr:`wall_s`: the rows add up to it."""
        rest = self.wall_s - sum(self.self_s.values())
        return [
            *((layer, self.calls[layer], s) for layer, s in self.self_s.items()),
            ("(unattributed)", "", rest),
        ]

    def chrome_trace(self, extra_events: list[dict] | None = None) -> dict:
        """The Chrome-trace JSON object: one complete event per kept span,
        nested by time containment; ``extra_events`` (the provenance
        ledger's causal track) are appended verbatim.  ``otherData``
        carries :meth:`layer_rows` and the wall, so the file alone says
        where the time went even past :data:`MAX_SPANS`."""
        events = [
            {
                "name": label,
                "cat": layer,
                "ph": "X",
                "ts": round((start - self._origin) * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": 1,
                "tid": 1,
            }
            for label, layer, start, duration in self.spans
        ]
        return {
            "traceEvents": events + (extra_events or []),
            "displayTimeUnit": "ms",
            "otherData": {
                "dropped_spans": self.dropped,
                "wall_s": self.wall_s,
                "layer_rows": self.layer_rows(),
            },
        }

    def export_chrome(
        self, path: str | os.PathLike, extra_events: list[dict] | None = None
    ) -> None:
        """Write :meth:`chrome_trace` to ``path`` (one ``dumps``: its C
        encoder, where ``json.dump`` streams through the Python one)."""
        Path(path).write_text(
            json.dumps(self.chrome_trace(extra_events)), encoding="utf-8"
        )


def facade_layers(geo, runner) -> list[tuple[object, str]]:
    """Each part of a facade run, with the layer its calls are charged to."""
    engine = geo.engine
    return [
        (runner, "workloads"),
        (geo.cluster, "simulation"),
        *((monitor, "agents.monitoring") for monitor in geo.monitors.values()),
        (geo.telemetry, "agents.transport"),
        (geo.commands, "agents.transport"),
        (geo.daemon, "agents.daemon"),
        (geo.control, "agents.control"),
        (geo.db, "replaydb"),
        (engine.pipeline, "features"),
        (engine.model, "nn"),
        (engine, "engine"),
        (geo.checker, "action_checker"),
        (geo, "geomancy"),
    ]
