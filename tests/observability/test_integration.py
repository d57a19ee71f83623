"""End-to-end: one instrumented control loop -- subsystem coverage, the
layers' counts agreeing with each other, span nesting, determinism."""

import json
from pathlib import Path

import pytest

from repro.experiments.facade import Exports, Faults, run_facade
from repro.experiments.harness import make_experiment_config
from repro.experiments.spec import TEST_SCALE
from repro.observability import metrics

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


def snapshot(run) -> dict:
    """The derived export of a finished facade run."""
    return metrics.snapshot(run.geo, run.runner, run.injector)


def snapshot_lines(run) -> list[dict]:
    return [
        json.loads(line)
        for line in Path(
            run.artifacts["metrics_snapshots"]
        ).read_text().splitlines()
    ]


class TestMetricsCoverage:
    def test_covers_required_subsystems(self, result):
        subsystems = {
            name.split("_")[1]
            for group in snapshot(result).values()
            for name in group
        }
        assert REQUIRED_SUBSYSTEMS <= subsystems

    def test_prometheus_dump_written_and_parseable(self, result):
        text = Path(result.artifacts["metrics"]).read_text()
        assert text == metrics.render_prometheus(
            result.geo, result.runner, result.injector
        )
        assert "# TYPE repro_engine_ticks_total counter" in text
        assert "# TYPE repro_engine_train_seconds histogram" in text
        # every sample line is "name[{labels}] value"
        for line in text.strip().splitlines():
            if line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            float(value)

    def test_snapshots_track_the_run(self, result):
        lines = snapshot_lines(result)
        assert [line["run"] for line in lines] == list(
            range(1, result.runs_completed + 1)
        )
        ticks = [
            line["metrics"]["counters"]["repro_engine_ticks_total"]
            for line in lines
        ]
        assert ticks == sorted(ticks)  # counters are monotone
        assert ticks[-1] == result.runs_completed


class TestCountsAgree:
    """The layers count one run's traffic alike (lossless, fault-free)."""

    def test_the_four_access_counts_agree(self, result):
        counters = snapshot(result)["counters"]
        counts = {
            counters[f"repro_{name}_total"]
            for name in (
                "agents_accesses_observed", "agents_records_ingested",
                "simulation_accesses", "workloads_accesses",
            )
        }
        assert len(counts) == 1 and counts.pop() > 0

    def test_moves_succeeded_are_the_runs_succeeded_movements(self, result):
        counters = snapshot(result)["counters"]
        succeeded = sum(1 for move in result.movements if move.succeeded)
        assert succeeded > 0
        assert counters["repro_engine_moves_succeeded_total"] == succeeded

    def test_every_counter_is_monotone_across_snapshots(self, result):
        lines = snapshot_lines(result)
        for name in lines[0]["metrics"]["counters"]:
            values = [line["metrics"]["counters"][name] for line in lines]
            assert values == sorted(values), name

    def test_aborted_migrations_are_the_injected_faults(self):
        run = run_facade(
            make_experiment_config(TEST_SCALE), scale=TEST_SCALE, seed=0,
            faults=Faults(
                schedule=("kill:file0@150",), migration_failure_rate=0.2
            ),
        )
        counters = snapshot(run)["counters"]
        injected = run.injector.migration_faults_injected
        assert injected > 0
        assert counters["repro_simulation_migrations_aborted_total"] == injected
        assert counters["repro_faults_migration_aborts_total"] == injected


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
        assert roots.count("workloads.run_many") == runs
        assert roots.count("geomancy.after_run") == runs


class TestDeterminism:
    def test_disabled_run_is_bit_for_bit_identical(self, result):
        disabled = run_facade(
            make_experiment_config(TEST_SCALE), scale=TEST_SCALE, seed=0,
            exports=None,
        )
        assert disabled.movement_fingerprint() == result.movement_fingerprint()
        assert disabled.final_layout == result.final_layout
        assert disabled.mean_gbps == result.mean_gbps
        assert disabled.accesses == result.accesses
        assert disabled.events == result.events
        assert disabled.trace is None and disabled.artifacts == {}
        # The metrics are read off the run's own tallies: the exports
        # stage changes none of them.
        assert snapshot(disabled)["counters"] == snapshot(result)["counters"]
