"""The telemetry core: spans, counters, activation scoping, sinks."""

import json

import pytest

from repro.obs import tracer as obs
from repro.obs.tracer import STAGES, ZERO_TIMINGS, JsonlSink, Telemetry, Tracer


class TestTracer:
    def test_span_times_and_counts(self):
        t = Tracer()
        with t.span("execute"):
            pass
        with t.span("execute"):
            pass
        assert t.span_counts["execute"] == 2
        assert t.timings["execute"] >= 0.0

    def test_spans_nest_and_both_record(self):
        t = Tracer()
        with t.span("compile"):
            with t.span("check"):
                pass
        assert t.span_counts == {"compile": 1, "check": 1}
        # the outer span's elapsed includes the inner's
        assert t.timings["compile"] >= t.timings["check"]

    def test_span_records_through_exception(self):
        t = Tracer()
        with pytest.raises(RuntimeError):
            with t.span("execute"):
                raise RuntimeError("boom")
        assert t.span_counts["execute"] == 1
        # the stack unwound: a later span has no stale parent
        with t.span("bind"):
            pass
        assert t._stack == []

    def test_counters_and_annotations(self):
        t = Tracer()
        t.count("cache.hit")
        t.count("cache.hit", 2)
        t.annotate("tier", "reference")
        t.annotate("tier", "fused")  # last write wins
        assert t.counters["cache.hit"] == 3
        assert t.annotations["tier"] == "fused"

    def test_events_buffer_is_bounded(self):
        t = Tracer(keep_events=True)
        t.MAX_EVENTS = 5
        for i in range(10):
            t.event("tick", i=i)
        assert len(t.events) == 5

    def test_events_dropped_without_sink_or_buffer(self):
        t = Tracer()
        t.event("tick")
        with t.span("execute"):
            pass
        assert t.events == []  # aggregates still recorded
        assert t.span_counts["execute"] == 1


class TestActivation:
    def test_helpers_noop_without_active_tracer(self):
        assert obs.current() is None
        with obs.span("execute"):
            pass
        obs.count("cache.hit")
        obs.annotate("tier", "fused")
        obs.event("tick")  # none of these may raise

    def test_use_routes_helpers_to_tracer(self):
        t = Tracer()
        with obs.use(t):
            assert obs.current() is t
            with obs.span("execute"):
                obs.count("tier.fused")
            obs.annotate("tier", "fused")
        assert obs.current() is None
        assert t.span_counts["execute"] == 1
        assert t.counters["tier.fused"] == 1
        assert t.annotations["tier"] == "fused"

    def test_use_nests_and_restores(self):
        outer, inner = Tracer(), Tracer()
        with obs.use(outer):
            obs.count("outer")
            with obs.use(inner):
                obs.count("inner")
            obs.count("outer")
        assert outer.counters == {"outer": 2}
        assert inner.counters == {"inner": 1}

    def test_use_restores_on_exception(self):
        t = Tracer()
        with pytest.raises(ValueError):
            with obs.use(t):
                raise ValueError
        assert obs.current() is None


class TestTelemetry:
    def test_stage_timings_has_fixed_schema(self):
        tel = Tracer().telemetry()
        assert tuple(tel.stage_timings()) == STAGES
        assert tel.stage_timings() == dict(ZERO_TIMINGS)

    def test_stage_timings_rounds(self):
        tel = Telemetry(timings={"compile": 0.123456789})
        assert tel.stage_timings()["compile"] == 0.123457

    def test_merge_adds_and_overwrites(self):
        a = Telemetry(timings={"execute": 1.0}, counters={"n": 1},
                      annotations={"tier": "fused"})
        b = Telemetry(timings={"execute": 2.0, "bind": 0.5},
                      counters={"n": 2}, annotations={"tier": "reference"})
        a.merge(b)
        assert a.timings == {"execute": 3.0, "bind": 0.5}
        assert a.counters == {"n": 3}
        assert a.annotations["tier"] == "reference"

    def test_as_dict_and_format(self):
        t = Tracer()
        with t.span("execute"):
            pass
        t.count("tier.fused")
        tel = t.telemetry()
        assert set(tel.as_dict()) == {
            "timings", "span_counts", "counters", "annotations"
        }
        assert "tier.fused=1" in tel.format()
        assert Telemetry().format() == "(no telemetry)"


class TestJsonlSink:
    def test_sink_receives_span_and_event_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        t = Tracer(sink=JsonlSink(str(path)))
        with t.span("compile"):
            with t.span("check"):
                pass
        t.event("fusion_fallback", reason="why")
        t.sink.close()
        lines = [json.loads(line) for line in
                 path.read_text().strip().splitlines()]
        assert [e["type"] for e in lines] == [
            "span", "span", "fusion_fallback"
        ]
        # inner span emits first (it closes first) and names its parent
        assert lines[0]["name"] == "check"
        assert lines[0]["parent"] == "compile"
        assert lines[2]["reason"] == "why"
        assert all("t" in e for e in lines)

    def test_sink_failure_never_propagates(self, tmp_path):
        sink = JsonlSink(str(tmp_path))  # a directory: open() fails
        sink.emit({"type": "tick"})
        assert sink._dead
        sink.emit({"type": "tick"})  # still silent
        sink.close()
