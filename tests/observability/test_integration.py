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


class TestTraceNesting:
    def test_spans_nest_under_per_tick_roots(self, result):
        trace = json.loads(Path(result.artifacts["trace"]).read_text())
        events = trace["traceEvents"]
        assert len(events) == len(result.geo.obs.tracer.spans) > 0
        parents_of: dict[str, set] = {}
        for e in events:
            parents_of.setdefault(e["name"], set()).add(
                e["args"].get("parent")
            )
        assert parents_of["tick"] == {None}
        # telemetry -> train -> predict -> move, all under the tick root
        assert parents_of["telemetry_collect"] == {"tick"}
        assert parents_of["telemetry_flush"] == {"tick"}
        # warm-up flushes land before any tick root exists
        assert parents_of["replaydb_write"] <= {None, "telemetry_flush"}
        assert "telemetry_flush" in parents_of["replaydb_write"]
        assert parents_of["train_step"] == {"tick"}
        assert parents_of["feature_pipeline"] == {"train_step"}
        assert parents_of["model_fit"] == {"train_step"}
        assert parents_of["propose_layout"] == {"tick"}
        # the ranking-sanity gate probes the model too, so predictions
        # nest under whichever decision step issued them
        assert parents_of["model_predict"] <= {
            "propose_layout", "ranking_check",
        }
        assert "propose_layout" in parents_of["model_predict"]
        assert parents_of["action_check"] == {"tick"}
        assert parents_of["movement_dispatch"] == {"tick"}
        assert parents_of["simulator_advance"] == {"tick"}

    def test_every_tick_has_a_root(self, result):
        trace = json.loads(Path(result.artifacts["trace"]).read_text())
        roots = [
            e["args"]["tick"]
            for e in trace["traceEvents"]
            if e["name"] == "tick"
        ]
        assert roots == list(range(1, result.runs_completed + 1))


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
        assert obs.tracer.spans == [] and len(obs.bus) == 0
        assert obs.metrics.render_prometheus() == ""

    def test_run_restores_the_process_default(self, result):
        assert get_observability().enabled is False
