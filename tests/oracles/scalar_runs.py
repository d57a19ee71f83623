"""Workload runs served access by access, and the control loops on them.

``WorkloadRunner.run_many`` hands whole runs to
``StorageCluster.access_batch``; here every run is the scalar model's
``run_stream`` (:mod:`tests.oracles.scalar_device`), one access at a
time through the readable service model rather than the
``StorageDevice.serve`` kernel both ``src/`` paths share.
``Geomancy.observe_records`` and ``MonitoringAgent.observe_many`` take a
run's records as chunks; here every record reaches its monitoring agent
through its own call (:func:`observe_each`, :func:`agent_observe`).
Records, clock, device state, batch boundaries, DB rows and every
downstream decision must come out bit for bit the same.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from repro.agents.monitoring import MonitoringAgent
from repro.core.geomancy import Geomancy
from repro.errors import AgentError
from repro.experiments import facade, harness
from repro.replaydb.records import AccessRecord
from repro.workloads.runner import RunResult, WorkloadRunner
from tests.oracles.scalar_device import run_stream


class ScalarRunner(WorkloadRunner):
    """A runner whose runs are access-by-access loops."""

    def run_many(self, count: int, *, advance_hook=None) -> list[RunResult]:
        results = []
        for _ in range(count):
            result = RunResult(run_index=self.next_run_index)
            for record in run_stream(self):
                result.records.append(record)
                if advance_hook is not None:
                    advance_hook(self.clock.now)
            results.append(result)
        return results


def agent_observe(agent: MonitoringAgent, record: AccessRecord) -> None:
    """Record one access on the agent's device.

    Auto-flushes a full batch ("Geomancy captures groups of accesses as
    one access to lower the overhead").
    """
    if record.device != agent.device:
        raise AgentError(
            f"agent for {agent.device!r} observed access on "
            f"{record.device!r}"
        )
    agent._buffer.append(record)
    agent.observed += 1
    if len(agent._buffer) >= agent.batch_size:
        agent.flush(at=record.close_time)


def observe_each(geo: Geomancy, records: list[AccessRecord]) -> None:
    """Route every access through its device's agent, one at a time."""
    for record in records:
        agent_observe(geo._monitor_for(record.device), record)


@contextmanager
def scalar_control_loop():
    """Every facade run on the scalar runner, record by record."""
    with mock.patch.object(harness, "WorkloadRunner", ScalarRunner), \
            mock.patch.object(Geomancy, "observe_records", observe_each):
        yield


def run_chaos_scalar(**kwargs) -> facade.ChaosResult:
    """``run_chaos`` with both twins on the scalar runner, record by record."""
    with scalar_control_loop():
        return facade.run_chaos(**kwargs)
