"""Benchmark-owned spans: a parent-stack timer around public callables.

The traced run measures every layer *from outside*: :meth:`Recorder.wrap`
replaces each public method of a boundary object (on the instance, never
the class) with a timing wrapper.  Spans nest through one stack, so a
layer's **self time** is its span's duration minus the part of that
interval its child spans cover -- the quantity the per-layer table
reports.  Spans stay in memory and are written out once, as a
Chrome-trace JSON, after the measured phase.

Two rules keep the attribution stable when layers call themselves:

* a call *within* one object (``transform_features`` ->
  ``feature_matrix``) inherits the bucket of the outermost call into
  that object, so a bucket names why the layer was entered, not which
  helper ran;
* counts are taken only at that outermost call -- the layer boundary --
  so nested helpers never double-count rows.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

#: spans kept for the Chrome trace; beyond it only the aggregates grow
MAX_KEPT_SPANS = 400_000

#: ``count(counts, args, kwargs, result)`` -- adds boundary counts
CountHook = Callable[[Counter, tuple, dict, object], None]


class Recorder:
    """Collects spans and per-bucket self time for one traced run."""

    def __init__(self) -> None:
        #: bucket -> self seconds (span duration minus child spans)
        self.self_s: dict[str, float] = defaultdict(float)
        #: "role.method" -> self seconds, for reading which call inside a
        #: layer the time went to
        self.method_self_s: dict[str, float] = defaultdict(float)
        #: exact counts taken at layer boundaries
        self.counts: Counter = Counter()
        #: "role.method" -> calls, for reading which queries dominate
        self.calls: Counter = Counter()
        #: (name, bucket, start, duration, epoch) per finished span
        self.spans: list[tuple[str, str, float, float, int]] = []
        self.spans_dropped = 0
        #: identifier shared by the spans of one decision epoch
        self.epoch = 0
        #: open spans: [role, bucket, child_seconds]
        self._stack: list[list] = []

    # -- span plumbing ---------------------------------------------------
    def _enter(self, role: str, bucket: str) -> float:
        self._stack.append([role, bucket, 0.0])
        return time.perf_counter()

    def _exit(self, name: str, start: float) -> None:
        duration = time.perf_counter() - start
        _, bucket, child_s = self._stack.pop()
        self.self_s[bucket] += duration - child_s
        self.method_self_s[name] += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append((name, bucket, start, duration, self.epoch))
        else:
            self.spans_dropped += 1

    @contextmanager
    def span(self, name: str, bucket: str):
        """A span the driver opens itself (one per decision epoch)."""
        start = self._enter(name, bucket)
        try:
            yield
        finally:
            self._exit(name, start)

    # -- wrapping --------------------------------------------------------
    def wrap(
        self,
        obj: object,
        role: str,
        bucket_of: Callable[[str], str],
        hook_of: Callable[[str], CountHook | None] = lambda name: None,
        *,
        extra: dict[str, str] | None = None,
    ) -> None:
        """Time every public method of ``obj`` under ``role``.

        ``bucket_of(method_name)`` names the bucket a call *into* the
        object is charged to, ``hook_of(method_name)`` the count taken
        there (or None).  ``extra`` maps additional (non-public)
        method names to a bucket they are always charged to, inheritance
        aside -- the one use is ReplayDB's deferred write, which runs
        inside whichever read comes next.  Missing ``extra`` names are
        skipped, so a renamed private helper degrades the split instead
        of breaking the benchmark.
        """
        for name, _ in inspect.getmembers(type(obj), inspect.isfunction):
            if name.startswith("_"):
                continue
            self._install(
                obj, role, name, bucket_of(name), hook_of(name), inherit=True
            )
        for name, bucket in (extra or {}).items():
            if inspect.isfunction(getattr(type(obj), name, None)):
                self._install(obj, role, name, bucket, None, inherit=False)

    def _install(
        self,
        obj: object,
        role: str,
        name: str,
        bucket: str,
        hook: CountHook | None,
        *,
        inherit: bool,
    ) -> None:
        inner = getattr(obj, name)
        label = f"{role}.{name}"
        stack = self._stack

        def traced(*args, **kwargs):
            entering = not (stack and stack[-1][0] == role)
            charged = bucket if entering or not inherit else stack[-1][1]
            start = self._enter(role, charged)
            try:
                result = inner(*args, **kwargs)
            finally:
                self._exit(label, start)
            self.calls[label] += 1
            if hook is not None and entering:
                hook(self.counts, args, kwargs, result)
            if inspect.isgenerator(result):
                return self._traced_generator(result, role, charged, label)
            return result

        setattr(obj, name, traced)

    def _traced_generator(self, gen, role: str, bucket: str, label: str):
        """Charge a generator's body to its layer, one span per ``next``."""
        while True:
            start = self._enter(role, bucket)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._exit(label, start)
            yield item

    # -- output ----------------------------------------------------------
    def write_chrome_trace(self, path: Path) -> None:
        """Spans as Chrome-trace complete events (``chrome://tracing``)."""
        origin = min((s[2] for s in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": bucket,
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"epoch": epoch},
            }
            for name, bucket, start, duration, epoch in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            json.dump(
                {"traceEvents": events, "spansDropped": self.spans_dropped},
                handle,
            )
