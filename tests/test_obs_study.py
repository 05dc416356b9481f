"""Acceptance tests for the observability layer on a real study run.

The ISSUE contract: a fully-traced study (``--trace --log-json
--manifest``) must produce (a) a span tree covering generate / mine /
analyze with one per-project span each — including those built in
worker processes — (b) a JSONL event log that the schema validator
accepts line by line, and (c) a manifest carrying seed, jobs, stage
timings and the metric snapshot; and its measures output must be
byte-identical to an untraced run at the same seed, serial and
``jobs=4`` alike.

A scaled-down canonical corpus (~1/16th) keeps the three study passes
fast while still crossing a real process boundary.
"""

import json
from dataclasses import replace

import pytest

from repro.analysis import run_study
from repro.cli import main
from repro.corpus import generate_corpus
from repro.corpus.profiles import CANONICAL_PROFILES, scaled_profiles
from repro.io import export_measures_csv
from repro.obs.context import RunContext
from repro.obs.events import validate_event_log, warn
from repro.obs.export import (
    chrome_trace,
    folded_stacks,
    prometheus_text,
    validate_prometheus_text,
)
from repro.obs.registry import as_record
from repro.obs.regress import compare_records
from repro.perf.pool import shutdown_pools
from repro.pipeline import Pipeline
from tests.conftest import RecordedLog

SCALE = 16
SEED = 97_531


def _small_corpus():
    profiles = tuple(
        replace(profile, count=max(1, round(profile.count / SCALE)))
        for profile in CANONICAL_PROFILES
    )
    return generate_corpus(seed=SEED, profiles=profiles)


def _traced_context() -> RunContext:
    """A context that traces, keeping its spans in memory only."""
    context = RunContext()
    context.tracer.enabled = True
    return context


def _csv_bytes(study, path):
    export_measures_csv(study, path)
    return path.read_bytes()


def _span_names(spans):
    names = []
    for span in spans:
        names.append(span["name"])
        names.extend(_span_names(span.get("children", ())))
    return names


def _find_span(spans, name):
    for span in spans:
        if span["name"] == name:
            return span
        found = _find_span(span.get("children", ()), name)
        if found is not None:
            return found
    return None


@pytest.fixture(scope="module")
def baseline_csv(tmp_path_factory):
    """Measures bytes of the untraced serial run — the ground truth."""
    with RunContext().active():
        study = run_study(_small_corpus())
    return _csv_bytes(study, tmp_path_factory.mktemp("base") / "m.csv")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One fully-traced ``jobs=4`` run with every artifact written."""
    tmp = tmp_path_factory.mktemp("traced")
    context = RunContext(
        command="study",
        trace_path=tmp / "trace.json",
        log_path=tmp / "events.jsonl",
        manifest_path=tmp / "manifest.json",
        progress=True,
    )
    context.seed = SEED
    context.jobs = 4
    # heartbeat on every completion so the small corpus still
    # exercises the progress path deterministically
    context.progress.interval = 0.0
    with context.active():
        corpus = _small_corpus()
        study = run_study(corpus, jobs=4)
    context.study = study
    context.finalize(status="ok")
    return {
        "dir": tmp,
        "corpus_size": len(corpus),
        "study": study,
        "csv": _csv_bytes(study, tmp / "m.csv"),
        "trace": json.loads((tmp / "trace.json").read_text()),
        "manifest": json.loads((tmp / "manifest.json").read_text()),
    }


class TestResultsUnchanged:
    def test_traced_parallel_measures_byte_identical(
        self, baseline_csv, traced
    ):
        assert traced["csv"] == baseline_csv

    def test_traced_serial_measures_byte_identical(
        self, baseline_csv, tmp_path
    ):
        context = RunContext(
            command="study",
            trace_path=tmp_path / "trace.json",
            log_path=tmp_path / "events.jsonl",
            progress=True,
        )
        context.progress.interval = 0.0
        with context.active():
            study = run_study(_small_corpus())
        context.study = study
        context.finalize(status="ok")
        assert _csv_bytes(study, tmp_path / "m.csv") == baseline_csv

    def test_observability_fields_do_not_affect_equality(self, traced):
        untraced = run_study(_small_corpus(), jobs=4)
        assert untraced == traced["study"]


class TestSpanTree:
    def test_covers_generate_mine_analyze(self, traced):
        names = _span_names(traced["trace"]["spans"])
        for required in ("generate", "pipeline", "map",
                         "mine", "analyze"):
            assert required in names, f"span {required!r} missing"

    def test_one_project_span_per_corpus_project(self, traced):
        names = _span_names(traced["trace"]["spans"])
        assert names.count("project") == traced["corpus_size"]
        assert names.count("generate_project") == traced["corpus_size"]

    def test_worker_spans_reattach_under_the_dispatching_span(self, traced):
        dispatch = _find_span(traced["trace"]["spans"], "map")
        assert dispatch is not None
        children = dispatch["children"]
        # one worker-built project span per cold shard, holding both
        # the mining and the analysis of that project
        assert len(children) == traced["corpus_size"]
        for project_span in children:
            assert project_span["name"] == "project"
            assert project_span["attributes"].get("project")
            child_names = [c["name"] for c in project_span["children"]]
            assert child_names == ["mine", "analyze"]

    def test_mine_spans_carry_history_attributes(self, traced):
        mine = _find_span(traced["trace"]["spans"], "mine")
        assert mine["attributes"]["versions"] > 0
        assert mine["attributes"]["months"] > 0


class TestRunIsolation:
    """A run's telemetry depends on that run alone.

    Worker tracing rides on each task, so a traced run that reuses a
    pool an untraced run started still gets every worker span; and two
    runs with their own contexts share no counter, warning, span or
    event log.
    """

    def test_traced_study_on_a_pool_an_untraced_study_warmed(self):
        shutdown_pools()
        Pipeline(seed=SEED, projects=8, jobs=2, context=RunContext()).study()
        traced = _traced_context()
        Pipeline(seed=SEED, projects=8, jobs=2, context=traced).study()
        names = _span_names(traced.tracer.to_payload()["spans"])
        assert names.count("project") == 8
        assert names.count("generate_project") == 8

    def test_traced_generation_on_a_pool_an_untraced_one_warmed(self):
        shutdown_pools()
        profiles = scaled_profiles(32)
        with RunContext().active():
            generate_corpus(seed=SEED, profiles=profiles, jobs=2)
        with _traced_context().active() as traced:
            corpus = generate_corpus(seed=SEED, profiles=profiles, jobs=2)
        names = _span_names(traced.tracer.to_payload()["spans"])
        assert len(corpus) == 7
        assert names.count("generate_project") == len(corpus)

    def test_two_pipelines_share_nothing(self):
        corpus = generate_corpus(seed=SEED, profiles=scaled_profiles(32))
        first, second = _traced_context(), _traced_context()
        first_log, second_log = RecordedLog(), RecordedLog()
        for context, log in ((first, first_log), (second, second_log)):
            context.progress.interval = 0.0
            context.recorder.log = context.progress.log = log
        Pipeline(corpus=corpus, context=first).study()
        with first.active():
            warn("probe", "raised in the first run")
        published = len(first_log)
        Pipeline(corpus=corpus, context=second).study()
        # the second run reached none of the first run's consumers, and
        # recorded exactly what the first one did, not a running total
        assert len(first_log) == published
        assert len(second_log) == published - 1 > 0
        assert [w["code"] for w in first.recorder.warnings] == ["probe"]
        assert second.recorder.warnings == []
        counters = first.metrics.snapshot().counters
        assert counters.pop("warnings.probe") == 1
        assert counters == second.metrics.snapshot().counters
        assert counters["projects.mined"] == len(corpus)
        assert len(first.tracer.roots) == len(second.tracer.roots) == 1


class TestEventLog:
    def test_every_line_validates(self, traced):
        count, problems = validate_event_log(traced["dir"] / "events.jsonl")
        assert problems == []
        assert count > 0

    def test_project_spans_logged_once_each(self, traced):
        lines = (traced["dir"] / "events.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        project_closes = [
            r for r in records
            if r["event"] == "span" and r["name"] == "project"
        ]
        assert len(project_closes) == traced["corpus_size"]

    def test_log_ends_with_the_run_marker(self, traced):
        lines = (traced["dir"] / "events.jsonl").read_text().splitlines()
        last = json.loads(lines[-1])
        assert last["event"] == "run"
        assert last["command"] == "study"
        assert last["status"] == "ok"


class TestProgress:
    def _heartbeats(self, traced):
        lines = (traced["dir"] / "events.jsonl").read_text().splitlines()
        return [
            r for r in map(json.loads, lines) if r["event"] == "progress"
        ]

    def test_both_fanout_stages_heartbeat(self, traced):
        stages = {r["stage"] for r in self._heartbeats(traced)}
        assert stages == {"generate", "map"}

    def test_final_heartbeat_reaches_the_corpus_size(self, traced):
        for stage in ("generate", "map"):
            finals = [
                r for r in self._heartbeats(traced) if r["stage"] == stage
            ]
            assert finals[-1]["done"] == traced["corpus_size"]
            assert finals[-1]["total"] == traced["corpus_size"]
            assert finals[-1]["percent"] == 100.0

    def test_done_counts_are_monotonic(self, traced):
        for stage in ("generate", "map"):
            dones = [
                r["done"] for r in self._heartbeats(traced)
                if r["stage"] == stage
            ]
            assert dones == sorted(dones)
            assert len(set(dones)) == len(dones)  # no duplicate emits

    def test_mine_heartbeats_carry_slowest_projects(self, traced):
        finals = [
            r for r in self._heartbeats(traced)
            if r["stage"] == "map"
        ]
        slowest = finals[-1]["slowest"]
        assert 0 < len(slowest) <= 3
        assert all(s["name"] and s["seconds"] >= 0 for s in slowest)


class TestExporters:
    def test_chrome_export_covers_every_span(self, traced):
        doc = chrome_trace(traced["trace"])
        complete = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert len(complete) == len(_span_names(traced["trace"]["spans"]))

    def test_chrome_export_has_worker_lanes(self, traced):
        doc = chrome_trace(traced["trace"])
        worker_lanes = {
            e["tid"] for e in doc["traceEvents"]
            if e.get("ph") == "X" and e["name"] == "project"
        }
        assert worker_lanes and 0 not in worker_lanes

    def test_prometheus_export_passes_the_validator(self, traced):
        page = prometheus_text(traced["manifest"]["metrics"])
        assert validate_prometheus_text(page) == []
        assert "repro_projects_mined_total" in page

    def test_folded_stacks_cover_the_hot_path(self, traced):
        stacks = folded_stacks(traced["trace"])
        assert "pipeline;stage:aggregate;map;project;mine " in stacks


class TestManifest:
    def test_carries_seed_jobs_timings_metrics(self, traced):
        manifest = traced["manifest"]
        assert manifest["seed"] == SEED
        assert manifest["jobs"] == 4
        assert manifest["status"] == "ok"
        stages = manifest["timings"]["stages"]
        assert stages["mine"] > 0
        assert stages["analyze"] > 0
        assert stages["total"] > 0
        counters = manifest["metrics"]["counters"]
        assert counters["projects.mined"] == traced["corpus_size"]
        assert counters["versions.parsed"] > 0
        assert any(key.startswith("changes.") for key in counters)
        assert "parse_cache.misses" in counters
        assert "diff.seconds" in manifest["metrics"]["histograms"]

    def test_carries_the_host_environment(self, traced):
        environment = traced["manifest"]["environment"]
        assert environment["hostname"]
        assert environment["platform"]
        assert environment["cpu_count"] >= 1

    def test_outputs_point_at_the_artifacts(self, traced):
        outputs = traced["manifest"]["outputs"]
        assert outputs["trace"].endswith("trace.json")
        assert outputs["events"].endswith("events.jsonl")

    def test_round_trips_through_json(self, traced):
        manifest = traced["manifest"]
        assert json.loads(json.dumps(manifest)) == manifest
        # and bench-check reads it back: a self-comparison passes
        record = as_record(manifest, "manifest")
        verdict = compare_records(record, record)
        assert not verdict.failed, verdict.render()


class TestTraceViewCommand:
    def test_renders_the_span_tree(self, traced, capsys):
        assert main(
            ["trace-view", str(traced["dir"] / "trace.json")]
        ) == 0
        out = capsys.readouterr().out
        assert "pipeline" in out
        assert "project" in out
        assert "map" in out

    def test_depth_limits_the_output(self, traced, capsys):
        assert main(
            ["trace-view", str(traced["dir"] / "trace.json"),
             "--depth", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "pipeline" in out
        assert "stage:aggregate" not in out

    def test_sort_by_self_time_reorders_siblings(self, traced, capsys):
        assert main(
            ["trace-view", str(traced["dir"] / "trace.json"),
             "--sort", "self", "--depth", "2"]
        ) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines()[1:] if l.strip()]
        # with --sort self the hottest root comes first, and project
        # rows inside map are ordered by descending self time
        assert lines, "no spans rendered"

    def test_min_ms_prunes_fast_subtrees(self, traced, capsys):
        assert main(
            ["trace-view", str(traced["dir"] / "trace.json"),
             "--min-ms", "1e9"]
        ) == 0
        out = capsys.readouterr().out
        assert "project" not in out  # everything pruned, header remains
        assert out.splitlines()[0].startswith("span")

    def test_bad_sort_rejected_by_the_parser(self, traced):
        with pytest.raises(SystemExit):
            main(["trace-view", str(traced["dir"] / "trace.json"),
                  "--sort", "alphabetical"])

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["trace-view", str(tmp_path / "nope.json")]) == 1
        assert "no such trace file" in capsys.readouterr().err

    def test_invalid_json_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["trace-view", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err
