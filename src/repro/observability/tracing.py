"""Span-based control-loop tracing with Chrome-trace export.

A :class:`Tracer` records *spans*: named wall/CPU-timed intervals that
nest (each span remembers its parent, forming a tree per control tick).
The control loop opens a root span per tick via :meth:`Tracer.tick`, so
"where did tick 4812 spend its time" is answerable by filtering spans on
their tick id.  Usage::

    with tracer.tick(run_number):
        with tracer.span("train_step", samples=n):
            ...

Export is the Chrome-trace JSON event format (open the file in
``chrome://tracing`` or https://ui.perfetto.dev): complete ``"ph": "X"``
events whose nesting is implied by time containment on one thread track.

Ticks can be *sampled*: with ``sample_rate=0.1`` only every 10th tick
records spans (deterministically by tick id -- no RNG, so tracing never
perturbs seeded experiments).  A disabled tracer hands out one shared
no-op span, so the instrumented hot path pays a method call and a branch.
"""

from __future__ import annotations

import json
import os
import time

from repro.errors import ConfigurationError
from repro.observability.logs import get_logger
from repro.observability.metrics import NULL_COUNTER

logger = get_logger("observability.tracing")

#: hard cap on retained spans -- a runaway loop must not eat the heap
MAX_SPANS = 200_000


class _NullSpan:
    """Shared no-op context manager for disabled/unsampled tracing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


NULL_SPAN = _NullSpan()


class _Span:
    """One live span; records itself on the tracer at exit."""

    __slots__ = ("tracer", "name", "args", "start", "cpu_start", "parent")

    def __init__(self, tracer: "Tracer", name: str, args: dict | None) -> None:
        self.tracer = tracer
        self.name = name
        self.args = args

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        self.parent = tracer._stack[-1] if tracer._stack else None
        tracer._stack.append(self.name)
        self.cpu_start = time.process_time()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        cpu_end = time.process_time()
        tracer = self.tracer
        tracer._stack.pop()
        tracer._record(
            self.name,
            self.start,
            end - self.start,
            cpu_end - self.cpu_start,
            self.parent,
            self.args,
        )


class Tracer:
    """Collects nested spans; exports Chrome-trace JSON."""

    def __init__(
        self,
        *,
        enabled: bool = True,
        sample_rate: float = 1.0,
    ) -> None:
        if not 0.0 < sample_rate <= 1.0:
            raise ConfigurationError(
                f"sample_rate must be in (0, 1], got {sample_rate}"
            )
        self.enabled = bool(enabled)
        self.sample_rate = float(sample_rate)
        #: record every Nth tick (1 = all); derived once from sample_rate
        self._tick_stride = max(1, round(1.0 / sample_rate))
        self._epoch = time.perf_counter()
        self._stack: list[str] = []
        self._tick: int | None = None
        self._in_unsampled_tick = False
        self.spans: list[dict] = []
        self.dropped = 0
        #: wired to ``repro_trace_spans_dropped_total`` by the
        #: Observability bundle; stays null for a bare tracer
        self._drop_counter = NULL_COUNTER

    def __len__(self) -> int:
        return len(self.spans)

    # -- recording -------------------------------------------------------
    def _record(
        self,
        name: str,
        start: float,
        wall: float,
        cpu: float,
        parent: str | None,
        args: dict | None,
    ) -> None:
        if len(self.spans) >= MAX_SPANS:
            self.dropped += 1
            self._drop_counter.inc()
            if self.dropped == 1:
                logger.warning(
                    "span cap of %d reached; further spans are dropped "
                    "(counted in repro_trace_spans_dropped_total)",
                    MAX_SPANS,
                )
            return
        self.spans.append(
            {
                "name": name,
                "ts": start - self._epoch,
                "dur": wall,
                "cpu": cpu,
                "tick": self._tick,
                "parent": parent,
                "args": args,
            }
        )

    def span(self, name: str, **args) -> "_Span | _NullSpan":
        """A context manager timing one named interval."""
        if not self.enabled or self._in_unsampled_tick:
            return NULL_SPAN
        return _Span(self, name, args or None)

    def tick(self, tick_id: int) -> "_Span | _NullSpan":
        """The per-tick root span; children carry ``tick_id`` as trace id.

        Sampling is deterministic in the tick id, so a seeded experiment
        traces the same ticks run after run.
        """
        if not self.enabled:
            return NULL_SPAN
        sampled = tick_id % self._tick_stride == 0
        return _Tick(self, int(tick_id), sampled)

    # -- analysis --------------------------------------------------------
    def aggregate(self) -> dict[str, dict]:
        """Per-span-name totals: count, wall seconds, CPU seconds."""
        out: dict[str, dict] = {}
        for span in self.spans:
            entry = out.setdefault(
                span["name"], {"count": 0, "wall_s": 0.0, "cpu_s": 0.0}
            )
            entry["count"] += 1
            entry["wall_s"] += span["dur"]
            entry["cpu_s"] += span["cpu"]
        return out

    # -- export ----------------------------------------------------------
    def chrome_trace(self, extra_events: list[dict] | None = None) -> dict:
        """The Chrome-trace JSON object (``traceEvents`` complete events).

        ``extra_events`` are appended verbatim -- the hook the causal
        provenance layer uses to add its linked batch/decision track
        (see :meth:`~repro.observability.provenance.ProvenanceLedger.chrome_events`).
        """
        events = []
        for span in self.spans:
            args = dict(span["args"]) if span["args"] else {}
            if span["tick"] is not None:
                args["tick"] = span["tick"]
            if span["parent"] is not None:
                args["parent"] = span["parent"]
            args["cpu_ms"] = round(span["cpu"] * 1e3, 6)
            events.append(
                {
                    "name": span["name"],
                    "cat": "repro",
                    "ph": "X",
                    "ts": round(span["ts"] * 1e6, 3),
                    "dur": round(span["dur"] * 1e6, 3),
                    "pid": 1,
                    "tid": 1,
                    "args": args,
                }
            )
        if extra_events:
            events.extend(extra_events)
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"dropped_spans": self.dropped},
        }

    def export_chrome(
        self,
        path: str | os.PathLike,
        extra_events: list[dict] | None = None,
    ) -> int:
        """Write :meth:`chrome_trace` to ``path``; returns the span count."""
        with open(path, "w", encoding="utf-8") as sink:
            json.dump(self.chrome_trace(extra_events), sink)
        return len(self.spans)


class _Tick(_Span):
    """Root span for one control tick; gates sampling for its children."""

    __slots__ = ("tick_id", "sampled", "_prev_tick", "_prev_unsampled")

    def __init__(self, tracer: Tracer, tick_id: int, sampled: bool) -> None:
        super().__init__(tracer, "tick", {"n": tick_id})
        self.tick_id = tick_id
        self.sampled = sampled

    def __enter__(self) -> "_Tick":
        tracer = self.tracer
        self._prev_tick = tracer._tick
        self._prev_unsampled = tracer._in_unsampled_tick
        tracer._tick = self.tick_id
        tracer._in_unsampled_tick = not self.sampled
        if self.sampled:
            super().__enter__()
        return self

    def __exit__(self, *exc) -> None:
        tracer = self.tracer
        if self.sampled:
            super().__exit__(*exc)
        tracer._tick = self._prev_tick
        tracer._in_unsampled_tick = self._prev_unsampled
