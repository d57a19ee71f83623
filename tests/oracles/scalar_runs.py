"""Workload runs served access by access, and a chaos experiment on them.

``WorkloadRunner.run_once``/``run_many`` hand whole runs to
``StorageCluster.access_batch``; here every run is ``run_stream``
consumed one ``StorageCluster.access`` at a time, and every record
reaches the monitoring agents through its own ``Geomancy.observe`` call.
Records, clock, device state, DB rows and every downstream decision must
come out bit for bit the same.
"""

from __future__ import annotations

from unittest import mock

from repro.core.geomancy import Geomancy
from repro.experiments import robustness
from repro.workloads.runner import RunResult, WorkloadRunner


class ScalarRunner(WorkloadRunner):
    """A runner whose runs are access-by-access loops."""

    def run_once(self, *, advance_hook=None) -> RunResult:
        result = RunResult(run_index=self.next_run_index)
        for record in self.run_stream():
            result.records.append(record)
            if advance_hook is not None:
                advance_hook(self.clock.now)
        return result

    def run_many(self, count: int) -> list[RunResult]:
        return [self.run_once() for _ in range(count)]


def _observe_each(geo: Geomancy, records) -> None:
    for record in records:
        geo.observe(record)


def run_chaos_scalar(**kwargs) -> robustness.ChaosResult:
    """``run_chaos`` with both twins on the scalar runner, record by record."""
    with mock.patch.object(robustness, "WorkloadRunner", ScalarRunner), \
            mock.patch.object(Geomancy, "observe_records", _observe_each):
        return robustness.run_chaos(**kwargs)
