"""Unit tests for the hierarchical span tracer.

The contract under test: disabled tracing is a shared no-op, enabled
tracing builds a parent/child forest, detached spans round-trip through
``to_dict``/``attach`` (the worker transport), and close events reach
the tracer's bus exactly once whether a span closed in-process or was
replayed at attach time.
"""

import json

import pytest

from repro.obs.bus import TelemetryBus
from repro.obs.context import RunContext
from repro.obs.trace import (
    NULL_SPAN,
    TRACE_FORMAT,
    Span,
    Tracer,
    render_trace,
    write_trace,
)


class TestDisabledTracer:
    def test_span_returns_shared_null_span(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("anything") is NULL_SPAN
        assert tracer.detached("anything") is NULL_SPAN

    def test_null_span_is_a_silent_context_manager(self):
        with NULL_SPAN as span:
            assert span.set(key="value") is NULL_SPAN
        assert not NULL_SPAN.enabled

    def test_null_span_does_not_swallow_exceptions(self):
        with pytest.raises(ValueError):
            with Tracer(enabled=False).span("s"):
                raise ValueError("boom")

    def test_attach_is_a_no_op(self):
        tracer = Tracer(enabled=False)
        assert tracer.attach({"name": "x"}) is None
        assert tracer.roots == []


class TestSpanTree:
    def test_nesting_builds_parent_child_forest(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner-1"):
                pass
            with tracer.span("inner-2"):
                pass
        with tracer.span("second-root"):
            pass
        assert [s.name for s in tracer.roots] == ["outer", "second-root"]
        assert [c.name for c in tracer.roots[0].children] == [
            "inner-1",
            "inner-2",
        ]

    def test_attributes_from_kwargs_and_set(self):
        tracer = Tracer(enabled=True)
        with tracer.span("s", project="alpha") as span:
            span.set(versions=7)
        assert span.attributes == {"project": "alpha", "versions": 7}

    def test_exception_marks_span_error_and_propagates(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(RuntimeError):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        assert tracer.roots[0].status == "error"

    def test_timing_and_self_seconds(self):
        span = Span("parent", seconds=1.0)
        span.children = [Span("a", seconds=0.3), Span("b", seconds=0.4)]
        assert span.self_seconds == pytest.approx(0.3)
        # children summing past the parent clamp to zero, never negative
        span.children.append(Span("c", seconds=9.0))
        assert span.self_seconds == 0.0

    def test_detached_span_stays_out_of_the_forest(self):
        tracer = Tracer(enabled=True)
        with tracer.span("driver"):
            with tracer.detached("worker-unit") as unit:
                with tracer.span("step"):
                    pass
        assert [s.name for s in tracer.roots] == ["driver"]
        assert [c.name for c in unit.children] == ["step"]

    def test_clear_empties_the_forest(self):
        tracer = Tracer(enabled=True)
        with tracer.span("s"):
            pass
        tracer.clear()
        assert tracer.roots == []


class TestSerialisation:
    def test_to_dict_from_dict_round_trip(self):
        tracer = Tracer(enabled=True)
        with tracer.detached("project", project="p1") as span:
            with tracer.span("mine", versions=3):
                pass
            with tracer.span("analyze"):
                pass
        data = span.to_dict()
        # the transport payload is picklable plain data: json survives
        restored = Span.from_dict(json.loads(json.dumps(data)))
        assert restored.name == "project"
        assert restored.attributes == {"project": "p1"}
        assert [c.name for c in restored.children] == ["mine", "analyze"]
        assert restored.children[0].attributes == {"versions": 3}
        assert restored.to_dict() == data

    def test_walk_yields_children_before_parents(self):
        span = Span.from_dict(
            {
                "name": "root",
                "children": [
                    {"name": "a", "children": [{"name": "a1"}]},
                    {"name": "b"},
                ],
            }
        )
        assert [s.name for s in span.walk()] == ["a1", "a", "b", "root"]

    def test_attach_places_tree_under_the_open_span(self):
        tracer = Tracer(enabled=True)
        with tracer.span("dispatch"):
            attached = tracer.attach({"name": "project", "children": []})
        assert attached is not None
        assert tracer.roots[0].children[0].name == "project"

    def test_attach_with_no_open_span_adds_a_root(self):
        tracer = Tracer(enabled=True)
        tracer.attach({"name": "orphan"})
        assert [s.name for s in tracer.roots] == ["orphan"]

    def test_attach_none_is_a_no_op(self):
        tracer = Tracer(enabled=True)
        assert tracer.attach(None) is None
        assert tracer.roots == []


def _closes(tracer: Tracer) -> list[str]:
    """Span names the tracer publishes on its bus, in close order."""
    closed = []
    tracer.bus = TelemetryBus()
    tracer.bus.add_sink(
        lambda envelope: closed.append(envelope["data"]["name"]),
        kinds=("span",),
    )
    return closed


class TestCloseEvents:
    def test_in_process_spans_emit_live_on_close(self):
        tracer = Tracer(enabled=True)
        closed = _closes(tracer)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert closed == ["inner", "outer"]

    def test_attach_emit_replays_worker_closes_once(self):
        tracer = Tracer(enabled=True)
        closed = _closes(tracer)
        data = {
            "name": "project",
            "children": [{"name": "mine"}, {"name": "analyze"}],
        }
        tracer.attach(data, emit=True)
        assert closed == ["mine", "analyze", "project"]

    def test_attach_without_emit_replays_nothing(self):
        # the serial path: the spans already emitted at close time
        tracer = Tracer(enabled=True)
        closed = _closes(tracer)
        tracer.attach({"name": "project"}, emit=False)
        assert closed == []

    def test_without_a_bus_closes_stay_in_the_tree(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            pass
        assert tracer.bus is None
        assert [span.name for span in tracer.roots] == ["outer"]


class TestRunTracing:
    def test_trace_outputs_enable_the_run_tracer(self, tmp_path):
        assert not RunContext().tracer.enabled
        assert RunContext(trace_path=tmp_path / "t.json").tracer.enabled

    def test_only_an_event_log_publishes_span_closes(self, tmp_path):
        assert RunContext(trace_path=tmp_path / "t.json").tracer.bus is None
        context = RunContext(log_path=tmp_path / "events.jsonl")
        assert context.tracer.enabled
        assert context.tracer.bus is context.bus
        context.finalize()

    def test_each_task_says_whether_it_is_traced(self):
        # how enablement reaches a pool worker: on the task, whatever
        # the worker's context was doing before
        from repro.corpus import corpus_specs
        from repro.corpus.profiles import scaled_profiles
        from repro.perf.parallel import ShardTask, map_shard

        spec, profile = corpus_specs(seed=7, profiles=scaled_profiles(32))[0]
        with RunContext().active():
            traced = map_shard(ShardTask(spec, profile, trace=True))
            untraced = map_shard(ShardTask(spec, profile))
        assert traced.mined.trace["name"] == "project"
        assert traced.generated.trace["name"] == "generate_project"
        assert untraced.mined.trace is None
        assert untraced.generated.trace is None


class TestTraceFileAndRendering:
    def _tracer_with_run(self):
        tracer = Tracer(enabled=True)
        with tracer.span("study", projects=2):
            with tracer.span("mine_analyze"):
                with tracer.span("project", project="p1"):
                    pass
        return tracer

    def test_write_trace_payload(self, tmp_path):
        tracer = self._tracer_with_run()
        path = write_trace(tracer, tmp_path / "nested" / "trace.json")
        payload = json.loads(path.read_text())
        assert payload["format"] == TRACE_FORMAT
        assert payload["spans"][0]["name"] == "study"

    def test_render_trace_indents_and_shows_attributes(self):
        text = render_trace(self._tracer_with_run().to_payload())
        lines = text.splitlines()
        assert "span" in lines[0] and "total" in lines[0]
        assert lines[1].startswith("study")
        assert lines[2].startswith("  mine_analyze")
        assert "project=p1" in lines[3]

    def test_render_trace_depth_limit(self):
        payload = self._tracer_with_run().to_payload()
        shallow = render_trace(payload, max_depth=0)
        assert "study" in shallow and "mine_analyze" not in shallow

    def test_render_trace_flags_error_spans(self):
        payload = {"spans": [{"name": "bad", "status": "error"}]}
        assert "[error]" in render_trace(payload)
