"""Span nesting, deterministic sampling, and Chrome-trace export."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.observability import tracing
from repro.observability.tracing import NULL_SPAN, Tracer


class TestNesting:
    def test_child_records_parent(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {span["name"]: span for span in tracer.spans}
        assert by_name["outer"]["parent"] is None
        assert by_name["inner"]["parent"] == "outer"
        # Children close before parents, so inner is recorded first.
        assert [span["name"] for span in tracer.spans] == ["inner", "outer"]

    def test_tick_is_root_and_tags_children(self):
        tracer = Tracer()
        with tracer.tick(7):
            with tracer.span("telemetry_collect"):
                pass
        collect, tick = tracer.spans
        assert tick["name"] == "tick"
        assert tick["args"] == {"n": 7}
        assert collect["tick"] == 7
        assert collect["parent"] == "tick"
        assert tick["tick"] == 7

    def test_span_args_recorded(self):
        tracer = Tracer()
        with tracer.span("train_step", samples=128):
            pass
        assert tracer.spans[0]["args"] == {"samples": 128}


class TestSampling:
    def test_stride_is_deterministic_in_tick_id(self):
        tracer = Tracer(sample_rate=0.5)
        for tick_id in range(1, 7):
            with tracer.tick(tick_id):
                with tracer.span("work"):
                    pass
        # Stride 2: only even tick ids record their spans.
        assert {span["tick"] for span in tracer.spans} == {2, 4, 6}
        assert len(tracer.spans) == 6  # work + tick root, 3 sampled ticks

    def test_unsampled_tick_suppresses_children(self):
        tracer = Tracer(sample_rate=0.5)
        with tracer.tick(1):
            assert tracer.span("work") is NULL_SPAN
        assert tracer.spans == []

    def test_disabled_tracer_hands_out_null_spans(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("work") is NULL_SPAN
        assert tracer.tick(1) is NULL_SPAN
        assert len(tracer) == 0

    def test_sample_rate_validated(self):
        with pytest.raises(ConfigurationError, match="sample_rate"):
            Tracer(sample_rate=0.0)


class TestCapAndAggregate:
    def test_drops_beyond_max_spans(self, monkeypatch):
        monkeypatch.setattr(tracing, "MAX_SPANS", 2)
        tracer = Tracer()
        for _ in range(4):
            with tracer.span("work"):
                pass
        assert len(tracer.spans) == 2
        assert tracer.dropped == 2

    def test_aggregate_totals(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("work"):
                pass
        totals = tracer.aggregate()
        assert totals["work"]["count"] == 3
        assert totals["work"]["wall_s"] >= 0.0


class TestChromeTrace:
    def test_event_schema(self):
        tracer = Tracer()
        with tracer.tick(3):
            with tracer.span("train_step", samples=8):
                pass
        trace = tracer.chrome_trace()
        assert trace["displayTimeUnit"] == "ms"
        assert trace["otherData"] == {"dropped_spans": 0}
        train = next(
            e for e in trace["traceEvents"] if e["name"] == "train_step"
        )
        assert train["ph"] == "X"
        assert train["cat"] == "repro"
        assert train["pid"] == 1 and train["tid"] == 1
        assert train["ts"] >= 0.0 and train["dur"] >= 0.0
        assert train["args"]["tick"] == 3
        assert train["args"]["parent"] == "tick"
        assert "cpu_ms" in train["args"]

    def test_export_writes_valid_json(self, tmp_path):
        tracer = Tracer()
        with tracer.span("work"):
            pass
        path = tmp_path / "trace.json"
        assert tracer.export_chrome(path) == 1
        loaded = json.loads(path.read_text())
        assert [e["name"] for e in loaded["traceEvents"]] == ["work"]


class TestSpanCap:
    def test_drops_are_counted_and_warned_once(self, monkeypatch, caplog):
        import logging

        monkeypatch.setattr(tracing, "MAX_SPANS", 2)
        tracer = Tracer()

        class _Counter:
            value = 0.0

            def inc(self, amount=1.0):
                self.value += amount

        tracer._drop_counter = _Counter()
        with caplog.at_level(
            logging.WARNING, logger="repro.observability.tracing"
        ):
            for _ in range(4):
                with tracer.span("work"):
                    pass
        assert len(tracer.spans) == 2
        assert tracer.dropped == 2
        # The silent-drop satellite: the counter sees every drop, the log
        # warns exactly once.
        assert tracer._drop_counter.value == 2.0
        warnings = [
            r for r in caplog.records if "span cap" in r.getMessage()
        ]
        assert len(warnings) == 1
        assert tracer.chrome_trace()["otherData"] == {"dropped_spans": 2}
