"""A fixed calibration kernel that prices the host's speed during a run.

The benchmark host is a small shared VM whose effective speed drifts by
tens of percent over seconds to minutes (neighbours on the same cores),
far more than the regression bounds.  Wall time and process CPU time move
together, so it is not steal that a CPU clock would exclude.  The drift
is slow against a decision epoch and fast against a run, so it cancels:
the driver times this kernel between decision epochs, outside every timed
region, and divides the run's host times by the run's mean slowdown

    slowdown = mean(kernel time over the run) / REF_MS

Reported times are therefore *host time at the reference speed* -- what
the run would have taken on an uncontended core of the host ``REF_MS``
was pinned on.  The kernel holds none of the repository's code, so a
change to ``src/`` moves a reported time exactly as it moves the raw one.
The raw wall time and the slowdown ride along in every record.
"""

from __future__ import annotations

import sqlite3
import time

import numpy as np

#: kernel time on a quiet core of the host the baseline was recorded on
#: (the 1st percentile over a minute of back-to-back calls); a pinned
#: constant, so a reported time means the same on every run
REF_MS = 1.9


class Yardstick:
    """Times the kernel; knows how long it spent doing so.

    The kernel is the mix the control loop itself is made of: small-matrix
    numpy calls, interpreter arithmetic, building row tuples and dicts,
    and sqlite bulk inserts.  (A memory-streaming part was tried and
    tracked the workloads' slowdown worst; each of these tracked some
    workload best.)
    """

    def __init__(self) -> None:
        self.samples_ms: list[float] = []
        #: host seconds spent inside :meth:`sample`, to be left out of
        #: whatever interval the caller is timing around it
        self.spent_s = 0.0
        self._a = np.linspace(0.0, 1.0, 32 * 64).reshape(32, 64)
        self._b = np.linspace(1.0, 2.0, 64 * 64).reshape(64, 64)
        self._db = sqlite3.connect(":memory:")
        self._db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, a, b, c, d, e)")

    def _kernel(self) -> float:
        a, b, db = self._a, self._b, self._db
        total = 0.0
        for _ in range(200):
            total += (a @ b)[0, 0]
        for i in range(3000):
            total += i * i
        rows = [
            (i, i + 1, f"dev{i % 6}", "path", i * 3, 0, i, i % 1000, 1.5, "{}")
            for i in range(1500)
        ]
        by_id = {}
        for row in rows:
            by_id[row[0]] = row
        db.executemany(
            "INSERT INTO t (a, b, c, d, e) VALUES (?, ?, ?, ?, ?)",
            [row[1:6] for row in rows[:800]],
        )
        db.commit()
        db.execute("DELETE FROM t")
        return total + len(by_id)

    def sample(self, calls: int = 2) -> None:
        start = time.perf_counter()
        for _ in range(calls):
            self._kernel()
        elapsed = time.perf_counter() - start
        self.samples_ms.append(1e3 * elapsed / calls)
        self.spent_s += elapsed

    @property
    def slowdown(self) -> float:
        return sum(self.samples_ms) / len(self.samples_ms) / REF_MS
