"""End-to-end: one instrumented control loop, checked against the paper
PR's acceptance bar -- subsystem coverage, span nesting, determinism."""

import json
from pathlib import Path

import pytest

from repro.experiments.facade import Exports, run_facade
from repro.experiments.harness import make_experiment_config
from repro.experiments.spec import TEST_SCALE
from repro.observability import Observability, get_observability

REQUIRED_SUBSYSTEMS = {
    "engine", "replaydb", "features", "nn", "simulation", "faults",
}


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    out = tmp_path_factory.mktemp("instrumented")
    return run_facade(
        make_experiment_config(TEST_SCALE), scale=TEST_SCALE, seed=0,
        exports=Exports(
            metrics_path=out / "metrics.prom",
            snapshot_path=out / "metrics.jsonl",
            trace_path=out / "trace.json",
        ),
    )


class TestMetricsCoverage:
    def test_covers_required_subsystems(self, result):
        subsystems = {
            name.split("_")[1]
            for group in result.geo.obs.metrics.snapshot().values()
            for name in group
        }
        assert REQUIRED_SUBSYSTEMS <= subsystems

    def test_prometheus_dump_written_and_parseable(self, result):
        text = Path(result.artifacts["metrics"]).read_text()
        assert text == result.geo.obs.metrics.render_prometheus()
        assert "# TYPE repro_engine_ticks_total counter" in text
        assert "# TYPE repro_engine_train_seconds histogram" in text
        # every sample line is "name[{labels}] value"
        for line in text.strip().splitlines():
            if line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            float(value)

    def test_snapshots_track_the_run(self, result):
        lines = [
            json.loads(line)
            for line in Path(
                result.artifacts["metrics_snapshots"]
            ).read_text().splitlines()
        ]
        assert [line["run"] for line in lines] == list(
            range(1, result.runs_completed + 1)
        )
        ticks = [
            line["metrics"]["counters"]["repro_engine_ticks_total"]
            for line in lines
        ]
        assert ticks == sorted(ticks)  # counters are monotone
        assert ticks[-1] == result.runs_completed


def _with_parents(events: list[dict]):
    """``(event, innermost enclosing event or None)`` per span event; one
    track, so nesting is time containment."""
    stack: list[dict] = []
    for event in sorted(events, key=lambda e: (e["ts"], -e["dur"])):
        # ts and dur are rounded to the nanosecond separately
        while stack and event["ts"] >= (
            stack[-1]["ts"] + stack[-1]["dur"] - 0.002
        ):
            stack.pop()
        yield event, stack[-1] if stack else None
        stack.append(event)


class TestTraceNesting:
    @pytest.fixture(scope="class")
    def events(self, result):
        trace = json.loads(Path(result.artifacts["trace"]).read_text())
        return trace["traceEvents"]

    def test_layers_nest_along_the_control_loop(self, result, events):
        assert len(events) == len(result.trace.spans) > 0
        parents: dict[str, set] = {}
        for event, parent in _with_parents(events):
            parents.setdefault(event["cat"], set()).add(
                parent["cat"] if parent else None
            )
        # the loop drives the workload and the facade; the facade drives
        # the agents and the decision path; only the engine drives the
        # feature pipeline and the network
        assert parents["workloads"] == {None}
        assert parents["geomancy"] - {"geomancy"} == {None}
        for layer in ("agents.monitoring", "agents.daemon", "agents.control",
                      "action_checker", "engine"):
            assert parents[layer] - {layer} == {"geomancy"}, layer
        assert parents["features"] - {"features"} == {"engine"}
        assert parents["nn"] - {"nn"} == {"engine"}
        # telemetry lands through the daemon, training windows are read
        # by the engine
        assert {"agents.daemon", "engine"} <= parents["replaydb"] <= {
            "agents.daemon", "engine", "geomancy",
        }

    def test_every_run_is_one_root_per_phase(self, result, events):
        roots = [
            event["name"]
            for event, parent in _with_parents(events)
            if parent is None
        ]
        runs = result.runs_completed
        assert roots.count("workloads.run_once") == runs
        assert roots.count("geomancy.after_run") == runs


class TestDeterminism:
    def test_disabled_run_is_bit_for_bit_identical(self, result):
        disabled = run_facade(
            make_experiment_config(TEST_SCALE), scale=TEST_SCALE, seed=0,
            exports=Exports(), obs=Observability(enabled=False),
        )
        assert disabled.movement_fingerprint() == result.movement_fingerprint()
        assert disabled.final_layout == result.final_layout
        assert disabled.mean_gbps == result.mean_gbps
        assert disabled.accesses == result.accesses
        obs = disabled.geo.obs
        assert disabled.trace is None and len(obs.bus) == 0
        assert obs.metrics.render_prometheus() == ""

    def test_run_restores_the_process_default(self, result):
        assert get_observability().enabled is False
