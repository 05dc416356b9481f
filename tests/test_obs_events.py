"""Unit tests for structured run events: recorder, JSONL log, validator.

Every ``--log-json`` line must satisfy :data:`repro.obs.events.
EVENT_FIELDS`; these tests pin the schema from both sides — records the
pipeline emits always validate, and malformed records are rejected with
a specific problem message.
"""

import json

from repro.obs.context import current
from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    EventLog,
    EventRecorder,
    aggregate_warnings,
    provenance_event,
    resource_event,
    run_event,
    span_event,
    validate_event,
    validate_event_line,
    validate_event_log,
    warn,
)
from repro.obs.trace import Span


class TestEventRecorder:
    def test_warn_records_and_returns_the_event(self):
        recorder = EventRecorder()
        record = recorder.warn(
            "ddl-unparseable", "version deadbeef parsed empty", sha="deadbeef"
        )
        assert record["event"] == "warning"
        assert record["code"] == "ddl-unparseable"
        assert record["context"] == {"sha": "deadbeef"}
        assert recorder.warnings == [record]
        assert validate_event(record) == []

    def test_warnings_count_into_metrics(self):
        current().recorder.warn("empty-history", "p: zero activity")
        current().recorder.warn("empty-history", "q: zero activity")
        assert current().metrics.counter("warnings.empty-history") == 2

    def test_sink_sees_every_delivery(self):
        recorder = EventRecorder()
        seen = []
        recorder.bus.add_sink(lambda envelope: seen.append(envelope["data"]))
        recorder.warn("a", "first")
        recorder.replay({"event": "warning", "ts": 0.0, "code": "b",
                         "message": "from a worker", "context": {}})
        assert [r["code"] for r in seen] == ["a", "b"]
        assert len(recorder.warnings) == 2

    def test_mark_since_window(self):
        recorder = EventRecorder()
        recorder.warn("before", "outside the window")
        mark = recorder.mark()
        recorder.warn("inside-1", "m")
        recorder.warn("inside-2", "m")
        window = recorder.since(mark)
        assert [r["code"] for r in window] == ["inside-1", "inside-2"]
        # the window is picklable plain data
        assert json.loads(json.dumps(window)) == window

    def test_module_level_warn_uses_the_active_recorder(self):
        record = warn("cache-dir-degraded", "dir unusable", cache_dir="/x")
        assert current().recorder.warnings == [record]


class TestAggregateWarnings:
    def test_groups_by_code_in_first_seen_order(self):
        warnings = [
            {"code": "b", "message": "b-one"},
            {"code": "a", "message": "a-one"},
            {"code": "b", "message": "b-two"},
            {"code": "b", "message": "b-three"},
        ]
        assert aggregate_warnings(warnings) == [
            {"code": "b", "count": 3, "first_message": "b-one"},
            {"code": "a", "count": 1, "first_message": "a-one"},
        ]

    def test_empty_input(self):
        assert aggregate_warnings([]) == []


class TestEventShapes:
    def test_span_event_validates(self):
        span = Span("mine", attributes={"versions": 3},
                    started_at=1700000000.5, seconds=0.25)
        record = span_event(span)
        assert record["name"] == "mine"
        assert record["attributes"] == {"versions": 3}
        assert validate_event(record) == []

    def test_run_event_validates(self):
        record = run_event("study", "ok")
        assert record["command"] == "study"
        assert validate_event(record) == []


class TestSchemaV2Events:
    def test_resource_event_validates(self):
        record = resource_event(
            "workers", {"peak_rss_bytes": 123 * 2**20, "cpu_seconds": 4.5}
        )
        assert record["schema"] == EVENT_SCHEMA_VERSION
        assert record["scope"] == "workers"
        assert record["peak_rss_bytes"] == 123 * 2**20
        assert validate_event(record) == []

    def test_resource_event_tolerates_missing_fields(self):
        record = resource_event("driver", {})
        assert record["peak_rss_bytes"] == 0
        assert record["cpu_seconds"] == 0.0
        assert validate_event(record) == []

    def test_provenance_event_validates(self):
        record = provenance_event({
            "stage": "mine",
            "project": "a/b",
            "state": "stale",
            "causes": [{"component": "code_version",
                        "label": "code_version bumped 2→3"}],
        })
        assert record["schema"] == EVENT_SCHEMA_VERSION
        assert record["causes"] == ["code_version bumped 2→3"]
        assert record["project"] == "a/b"
        assert validate_event(record) == []

    def test_provenance_event_omits_a_missing_project(self):
        record = provenance_event(
            {"stage": "aggregate", "state": "warm", "causes": []}
        )
        assert "project" not in record
        assert validate_event(record) == []


class TestForwardCompatibility:
    """Satellite 2: unknown-but-well-formed event kinds must pass."""

    def test_unknown_kind_with_schema_field_is_tolerated(self):
        assert validate_event(
            {"event": "gc-pause", "ts": 1.0, "schema": 3,
             "pause_ms": 12.5}
        ) == []

    def test_unknown_kind_without_schema_stays_an_error(self):
        problems = validate_event({"event": "gc-pause", "ts": 1.0})
        assert problems and "unknown event kind" in problems[0]

    def test_boolean_schema_does_not_count(self):
        # bool is an int subclass; a True schema is not a version claim
        assert validate_event(
            {"event": "gc-pause", "ts": 1.0, "schema": True}
        ) != []

    def test_non_numeric_ts_does_not_count(self):
        assert validate_event(
            {"event": "gc-pause", "ts": "noon", "schema": 3}
        ) != []

    def test_log_with_a_future_event_validates_clean(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit(run_event("study", "ok"))
            log.emit({"event": "from-the-future", "ts": 1.0,
                      "schema": EVENT_SCHEMA_VERSION + 1, "extra": [1]})
        count, problems = validate_event_log(path)
        assert count == 2
        assert problems == []


class TestValidator:
    def test_unknown_kind(self):
        assert validate_event({"event": "mystery"}) == [
            "unknown event kind 'mystery' "
            "(no schema field to claim forward compatibility)"
        ]
        assert validate_event({"no": "event"})[0].startswith("unknown")
        assert validate_event("not an object") == [
            "record is not a JSON object"
        ]

    def test_missing_and_extra_fields(self):
        problems = validate_event(
            {"event": "run", "ts": 1.0, "command": "study",
             "status": "ok", "surprise": 1}
        )
        assert problems == ["unexpected field 'surprise'"]
        problems = validate_event({"event": "run", "ts": 1.0, "status": "ok"})
        assert "missing field 'command'" in problems

    def test_wrong_field_type(self):
        record = run_event("study", "ok")
        record["ts"] = "noon"
        assert any("field 'ts' has type str" in p
                   for p in validate_event(record))

    def test_status_must_be_ok_or_error(self):
        record = run_event("study", "weird")
        assert "status 'weird' not in ok/error" in validate_event(record)

    def test_negative_seconds(self):
        record = span_event(Span("s"))
        record["seconds"] = -0.1
        assert "negative seconds" in validate_event(record)

    def test_validate_event_line_rejects_bad_json(self):
        assert validate_event_line("{not json")[0].startswith("invalid JSON")
        assert validate_event_line(json.dumps(run_event("x", "ok"))) == []


class TestEventLog:
    def test_writes_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "sub" / "events.jsonl"
        with EventLog(path) as log:
            log.emit(run_event("study", "ok"))
            log.emit(warn("empty-history", "p: skipped", project="p"))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["event"] == "run"
        assert json.loads(lines[1])["code"] == "empty-history"

    def test_validate_event_log_accepts_its_own_output(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit(span_event(Span("mine", seconds=0.1)))
            log.emit(run_event("study", "ok"))
        count, problems = validate_event_log(path)
        assert count == 2
        assert problems == []

    def test_validate_event_log_pinpoints_bad_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            json.dumps(run_event("study", "ok")) + "\n"
            + "\n"
            + "{broken\n"
            + json.dumps({"event": "nope"}) + "\n"
        )
        count, problems = validate_event_log(path)
        assert count == 3  # the empty line is a problem, not an event
        assert any(p.startswith("line 2: empty line") for p in problems)
        assert any(p.startswith("line 3: invalid JSON") for p in problems)
        assert any("unknown event kind" in p for p in problems)

    def test_empty_file_is_clean(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("")
        assert validate_event_log(path) == (0, [])

    def test_truncated_final_line_is_pinpointed(self, tmp_path):
        # a killed writer leaves a partial record with no newline
        path = tmp_path / "events.jsonl"
        full = json.dumps(run_event("study", "ok"))
        path.write_text(full + "\n" + full[: len(full) // 2])
        count, problems = validate_event_log(path)
        assert count == 2  # the fragment still counts as a line
        assert problems == [p for p in problems if p.startswith("line 2")]
        assert "invalid JSON" in problems[0]

    def test_interleaved_writers_stay_line_clean(self, tmp_path):
        # two streams whose complete lines were appended alternately
        # (the JSONL contract: interleaving whole lines is always safe)
        path = tmp_path / "events.jsonl"
        spans = [
            json.dumps(span_event(Span(f"a{i}", seconds=0.1)))
            for i in range(3)
        ]
        warns = [
            json.dumps({"event": "warning", "ts": 0.0, "code": f"w{i}",
                        "message": "m", "context": {}})
            for i in range(3)
        ]
        lines = [line for pair in zip(spans, warns) for line in pair]
        path.write_text("\n".join(lines) + "\n")
        count, problems = validate_event_log(path)
        assert count == 6
        assert problems == []

    def test_jammed_records_on_one_line_are_caught(self, tmp_path):
        # two writers racing without line buffering jam two records
        # onto one line; the validator pinpoints it and keeps going
        path = tmp_path / "events.jsonl"
        record = json.dumps(run_event("study", "ok"))
        path.write_text(record + record + "\n" + record + "\n")
        count, problems = validate_event_log(path)
        assert count == 2
        assert len(problems) == 1
        assert problems[0].startswith("line 1: invalid JSON")


class TestProgressEvents:
    def _record(self, **overrides):
        record = {
            "event": "progress",
            "ts": 1700000000.0,
            "stage": "mine_analyze",
            "done": 3,
            "total": 12,
            "percent": 25.0,
            "eta_seconds": 4.5,
            "slowest": [{"name": "acme/registry-000", "seconds": 0.25}],
        }
        record.update(overrides)
        return record

    def test_well_formed_record_validates(self):
        assert validate_event(self._record()) == []

    def test_progress_lines_validate_in_a_log(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit(self._record(done=1, percent=8.3))
            log.emit(self._record(done=12, percent=100.0, slowest=[]))
            log.emit(run_event("study", "ok"))
        count, problems = validate_event_log(path)
        assert count == 3
        assert problems == []

    def test_done_beyond_total_rejected(self):
        assert "done outside [0, total]" in validate_event(
            self._record(done=13)
        )
        assert "done outside [0, total]" in validate_event(
            self._record(done=-1)
        )

    def test_negative_eta_rejected(self):
        assert "negative eta_seconds" in validate_event(
            self._record(eta_seconds=-0.5)
        )

    def test_malformed_slowest_entries_rejected(self):
        problems = validate_event(
            self._record(slowest=["acme/registry-000"])
        )
        assert problems == ["slowest[0] is not a {name, seconds} object"]
        problems = validate_event(
            self._record(slowest=[{"name": "x", "seconds": "fast"}])
        )
        assert problems == ["slowest[0] is not a {name, seconds} object"]

    def test_missing_fields_rejected(self):
        record = self._record()
        del record["stage"]
        assert "missing field 'stage'" in validate_event(record)

    def test_unexpected_fields_rejected(self):
        assert "unexpected field 'speed'" in validate_event(
            self._record(speed=9000)
        )
