"""Unit tests for the span tracer and the trace exporters."""

import json
import warnings

import pytest

from repro.obs.export import (
    spans_to_chrome,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.tracing import NullTracer, SpanTracer


def _trace_three_nested():
    tracer = SpanTracer()
    with tracer.span("epoch", epoch=0):
        with tracer.span("forward"):
            with tracer.span("kernel", layer=1):
                pass
    return tracer


class TestSpanTracer:
    def test_nesting_depth_and_parent(self):
        tracer = _trace_three_nested()
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["epoch"].depth == 0
        assert by_name["forward"].depth == 1
        assert by_name["kernel"].depth == 2
        assert by_name["epoch"].parent == -1
        assert by_name["forward"].parent == by_name["epoch"].index
        assert by_name["kernel"].parent == by_name["forward"].index

    def test_children_contained_in_parent(self):
        tracer = _trace_three_nested()
        by_name = {s.name: s for s in tracer.spans}
        outer, inner = by_name["epoch"], by_name["kernel"]
        assert inner.start_s >= outer.start_s
        assert (inner.start_s + inner.duration_s
                <= outer.start_s + outer.duration_s + 1e-9)

    def test_siblings_sum_within_parent(self):
        tracer = SpanTracer()
        with tracer.span("iteration"):
            for layer in (1, 2):
                with tracer.span("layer", layer=layer):
                    pass
        by_name = {}
        for span in tracer.spans:
            by_name.setdefault(span.name, []).append(span)
        layer_total = sum(s.duration_s for s in by_name["layer"])
        assert layer_total <= by_name["iteration"][0].duration_s + 1e-9

    def test_totals_by_name(self):
        tracer = SpanTracer()
        for _ in range(3):
            with tracer.span("kernel"):
                pass
        count, seconds = tracer.totals_by_name()["kernel"]
        assert count == 3 and seconds >= 0.0

    def test_attrs_preserved(self):
        tracer = SpanTracer()
        with tracer.span("halo_exchange", layer=2, category="fp"):
            pass
        assert tracer.spans[0].attrs == {"layer": 2, "category": "fp"}

    def test_max_spans_drops_not_grows(self):
        tracer = SpanTracer(max_spans=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(5):
                with tracer.span("x"):
                    pass
        assert len(tracer.spans) == 2
        assert tracer.dropped == 3

    def test_drop_warns_exactly_once(self):
        tracer = SpanTracer(max_spans=1)
        with tracer.span("kept"):
            pass
        with pytest.warns(RuntimeWarning, match="span buffer full"):
            with tracer.span("first-drop"):
                pass
        # Subsequent overflows are silent — the counter carries on.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with tracer.span("second-drop"):
                pass
        assert tracer.dropped == 2

    def test_drops_mirrored_into_metrics(self):
        from repro.obs.registry import MetricsRegistry

        metrics = MetricsRegistry()
        tracer = SpanTracer(max_spans=1, metrics=metrics)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(4):
                with tracer.span("x"):
                    pass
        assert tracer.dropped == 3
        assert metrics.snapshot().counter("spans_dropped") == 3

    def test_reset_rearms_the_warning(self):
        tracer = SpanTracer(max_spans=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(2):
                with tracer.span("x"):
                    pass
        tracer.reset()
        with tracer.span("kept"):
            pass
        with pytest.warns(RuntimeWarning, match="span buffer full"):
            with tracer.span("overflow"):
                pass

    def test_invalid_max_spans(self):
        with pytest.raises(ValueError):
            SpanTracer(max_spans=0)

    def test_reset(self):
        tracer = _trace_three_nested()
        tracer.reset()
        assert tracer.spans == [] and tracer.dropped == 0

    def test_null_tracer_records_nothing(self):
        tracer = NullTracer()
        first = tracer.span("a", layer=1)
        second = tracer.span("b")
        with first, second:
            pass
        assert first is second  # shared no-op context
        assert tracer.spans == []
        assert tracer.totals_by_name() == {}


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        tracer = _trace_three_nested()
        path = write_jsonl(tracer.spans, tmp_path / "spans.jsonl")
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["name"] for r in records] == [
            s.name for s in tracer.spans
        ]
        assert records[0]["attrs"] == tracer.spans[0].attrs
        assert records[0]["duration_s"] == pytest.approx(
            tracer.spans[0].duration_s
        )

    def test_empty_jsonl(self, tmp_path):
        path = write_jsonl([], tmp_path / "spans.jsonl")
        assert path.read_text() == ""

    def test_chrome_document_shape(self):
        tracer = _trace_three_nested()
        doc = spans_to_chrome(tracer.spans, process_name="test")
        events = doc["traceEvents"]
        assert events[0]["ph"] == "M"  # process-name metadata
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 3
        for event in complete:
            assert {"name", "ph", "ts", "dur", "pid", "tid"} <= event.keys()
            assert event["dur"] >= 0.0

    def test_chrome_file_parses(self, tmp_path):
        tracer = _trace_three_nested()
        path = write_chrome_trace(tracer.spans, tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        kernel = [e for e in doc["traceEvents"] if e["name"] == "kernel"]
        assert kernel[0]["args"] == {"layer": 1}

    def test_chrome_timestamps_are_microseconds(self):
        tracer = _trace_three_nested()
        doc = spans_to_chrome(tracer.spans)
        span = tracer.spans[0]
        event = next(
            e for e in doc["traceEvents"] if e.get("ph") == "X"
            and e["name"] == span.name
        )
        assert event["ts"] == pytest.approx(span.start_s * 1e6)
        assert event["dur"] == pytest.approx(span.duration_s * 1e6)
