"""The boundary recorder: self time, instance-only wrapping, a balanced
stack on exceptions, the span cap, and a traced facade run."""

import itertools
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.experiments.facade import Exports, run_facade
from repro.experiments.harness import make_experiment_config
from repro.experiments.spec import TEST_SCALE
from repro.observability import tracing
from repro.observability.tracing import Recorder


class Inner:
    def work(self):
        return "done"

    def fail(self):
        raise ValueError("inner failure")

    def _private(self):
        return "private"


class Outer:
    def __init__(self, inner):
        self.inner = inner

    def call(self):
        return self.inner.work()

    def call_failing(self):
        return self.inner.fail()


def traced_pair():
    recorder = Recorder()
    inner = Inner()
    outer = Outer(inner)
    recorder.wrap(outer, "outer")
    recorder.wrap(inner, "inner")
    return recorder, outer, inner


@pytest.fixture
def clock(monkeypatch):
    """The recorder's clock, one second per reading."""
    readings = itertools.count()
    monkeypatch.setattr(
        tracing, "time",
        SimpleNamespace(perf_counter=lambda: float(next(readings))),
    )


@pytest.mark.usefixtures("clock")
class TestSelfTime:
    def test_self_time_is_duration_minus_children(self):
        recorder, outer, _ = traced_pair()
        assert outer.call() == "done"
        # readings: outer in 1, inner in 2, inner out 3, outer out 4
        assert recorder.spans == [
            ("inner.work", "inner", 2.0, 1.0),
            ("outer.call", "outer", 1.0, 3.0),
        ]
        assert recorder.self_s == {"outer": 2.0, "inner": 1.0}
        assert dict(recorder.calls) == {"outer": 1, "inner": 1}


class TestWrapping:
    def test_only_the_wrapped_instance_changes(self):
        recorder = Recorder()
        traced, untouched = Inner(), Inner()
        recorder.wrap(traced, "inner")
        assert "work" in vars(traced) and "fail" in vars(traced)
        assert "_private" not in vars(traced)  # private methods stay
        assert vars(untouched) == {}
        assert Inner.work is Inner.__dict__["work"]
        untouched.work()
        assert recorder.spans == []
        traced.work()
        assert len(recorder.spans) == 1

    def test_measure_restores_every_method(self):
        recorder, outer, inner = traced_pair()
        recorder.measure(outer.call)
        assert vars(inner) == {} and set(vars(outer)) == {"inner"}
        outer.call()
        assert len(recorder.spans) == 2  # nothing recorded after measure

    def test_exception_leaves_the_stack_balanced(self):
        recorder, outer, _ = traced_pair()
        with pytest.raises(ValueError, match="inner failure"):
            outer.call_failing()
        assert recorder._stack == []
        assert [span[0] for span in recorder.spans] == [
            "inner.fail", "outer.call_failing",
        ]
        # The next call nests and charges as if the failure never happened.
        outer.call()
        assert recorder._stack == []
        assert dict(recorder.calls) == {"outer": 2, "inner": 2}


@pytest.mark.usefixtures("clock")
class TestCapAndAggregate:
    def test_drops_beyond_max_spans(self, monkeypatch):
        monkeypatch.setattr(tracing, "MAX_SPANS", 3)
        recorder, outer, _ = traced_pair()
        recorder.measure(lambda: [outer.call() for _ in range(4)])
        assert len(recorder.spans) == 3
        assert recorder.dropped == 5
        # Every call is timed, kept or dropped: 2 s outer + 1 s inner each.
        assert recorder.self_s == {"outer": 8.0, "inner": 4.0}
        assert dict(recorder.calls) == {"outer": 4, "inner": 4}
        trace = recorder.chrome_trace()
        # the layer table survives in the file whatever was dropped
        assert trace["otherData"] == {
            "dropped_spans": 5,
            "wall_s": 17.0,
            "layer_rows": [
                ("outer", 4, 8.0), ("inner", 4, 4.0), ("(unattributed)", "", 5.0),
            ],
        }
        assert len(trace["traceEvents"]) == 3

    def test_aggregate_totals(self):
        recorder, outer, _ = traced_pair()
        recorder.measure(lambda: [outer.call(), outer.call()])
        assert recorder.wall_s == 9.0
        assert recorder.layer_rows() == [
            ("outer", 2, 4.0),
            ("inner", 2, 2.0),
            ("(unattributed)", "", 3.0),
        ]


class TestChromeTrace:
    def test_event_schema(self):
        recorder, outer, _ = traced_pair()
        outer.call()
        causal = {"name": "decision 1", "ph": "X", "pid": 2, "tid": 2}
        trace = recorder.chrome_trace(extra_events=[causal])
        assert trace["displayTimeUnit"] == "ms"
        assert trace["otherData"]["dropped_spans"] == 0
        inner_event, outer_event, extra = trace["traceEvents"]
        assert extra == causal
        assert outer_event["name"] == "outer.call"
        assert outer_event["cat"] == "outer"
        assert outer_event["ph"] == "X"
        assert outer_event["pid"] == 1 and outer_event["tid"] == 1
        # nesting is time containment on the one track
        assert outer_event["ts"] <= inner_event["ts"]
        assert (
            inner_event["ts"] + inner_event["dur"]
            <= outer_event["ts"] + outer_event["dur"] + 1e-3
        )

    def test_export_writes_valid_json(self, tmp_path):
        recorder, outer, _ = traced_pair()
        recorder.measure(outer.call)
        path = tmp_path / "trace.json"
        recorder.export_chrome(path)
        loaded = json.loads(path.read_text())
        assert [e["name"] for e in loaded["traceEvents"]] == [
            "inner.work", "outer.call",
        ]
        other = loaded["otherData"]
        assert [row[:2] for row in other["layer_rows"]] == [
            ["outer", 1], ["inner", 1], ["(unattributed)", ""],
        ]
        assert sum(row[2] for row in other["layer_rows"]) == pytest.approx(
            other["wall_s"], abs=1e-9
        )


class TestTracedFacade:
    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        def run(**exports):
            return run_facade(
                make_experiment_config(TEST_SCALE), scale=TEST_SCALE,
                seed=0, exports=Exports(**exports),
            )

        path = tmp_path_factory.mktemp("traced") / "trace.json"
        return run(trace_path=path), run()

    def test_tracing_changes_no_decision(self, runs):
        traced, untraced = runs
        assert traced.movements
        assert traced.movement_fingerprint() == untraced.movement_fingerprint()
        assert traced.final_layout == untraced.final_layout
        assert traced.mean_gbps == untraced.mean_gbps
        assert untraced.trace is None

    def test_every_layer_is_charged(self, runs):
        trace = runs[0].trace
        assert set(trace.self_s) == {
            "workloads", "simulation", "agents.monitoring",
            "agents.transport", "agents.daemon", "agents.control",
            "replaydb", "features", "nn", "engine", "action_checker",
            "geomancy",
        }
        assert trace.calls["workloads"] == TEST_SCALE.runs
        assert all(trace.calls[layer] > 0 for layer in trace.self_s)
        assert sum(row[2] for row in trace.layer_rows()) == pytest.approx(
            trace.wall_s, abs=1e-9
        )

    def test_report_and_trace_file(self, runs):
        traced = runs[0]
        text = traced.observed_text()
        assert "Per-layer self time (measured phase" in text
        assert "(unattributed)" in text
        assert f"spans recorded     | {len(traced.trace.spans)}" in text
        # per decision: the cycles the cooldown let through
        decisions = traced.geo.decisions
        assert decisions == TEST_SCALE.runs // TEST_SCALE.update_every
        assert f"{decisions} decisions, {traced.accesses} accesses" in text
        assert "ms/decision | µs/access" in text
        nn = next(line for line in text.splitlines() if line.startswith("nn "))
        seconds = traced.trace.self_s["nn"]
        assert [cell.strip() for cell in nn.split("|")[4:]] == [
            f"{1e3 * seconds / decisions:.3f}",
            f"{1e6 * seconds / traced.accesses:.3f}",
        ]
        events = json.loads(
            Path(traced.artifacts["trace"]).read_text()
        )["traceEvents"]
        assert len(events) == len(traced.trace.spans)
        # the facade is left unwrapped for whoever reads it afterwards
        assert "after_run" not in vars(traced.geo)
