"""The ``make trace-smoke`` entry point: a small, fully-traced study.

``python -m repro.obs.smoke`` runs a scaled-down corpus through the
study pipeline twice — untraced serial as the baseline, then traced
with ``jobs=2`` so worker span trees, metric deltas and warning windows
all cross a real process boundary — and then checks the observability
contract end to end:

1. the traced run's measures CSV is byte-identical to the untraced one
   (observability must never change results);
2. every line of the JSONL event log passes the schema validator;
3. the span tree covers generate / map / mine / analyze with one
   ``project`` span per corpus project (reattached from the workers);
4. the run manifest round-trips through ``json.loads`` and carries the
   seed, jobs, stage timings and metric snapshot;
5. progress heartbeats land in the event log for both fan-out stages,
   with the final ``map`` heartbeat at done == total;
6. the exporters accept the run's own telemetry: the Chrome export has
   one complete event per span, the Prometheus page passes the
   exposition-grammar validator, and the folded stacks are non-empty;
7. ``bench-check`` comparing the manifest against itself passes.

Exit status 0 on success, 1 with a diagnosis on the first violation.
"""

from __future__ import annotations

import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

#: Shrink factor for the smoke corpus (195 projects / 16 ≈ 14).
SMOKE_SCALE = 16
SMOKE_SEED = 195_2023
SMOKE_JOBS = 2


def _smoke_corpus():
    from ..corpus.generator import generate_corpus
    from ..corpus.profiles import CANONICAL_PROFILES

    profiles = tuple(
        replace(profile, count=max(1, round(profile.count / SMOKE_SCALE)))
        for profile in CANONICAL_PROFILES
    )
    return generate_corpus(seed=SMOKE_SEED, profiles=profiles)


def _measures_bytes(study, path: Path) -> bytes:
    from ..io import export_measures_csv

    export_measures_csv(study, path)
    return path.read_bytes()


def _span_names(spans: list[dict]) -> list[str]:
    names = []
    for span in spans:
        names.append(span["name"])
        names.extend(_span_names(span.get("children", ())))
    return names


def main() -> int:
    from ..analysis.study import run_study
    from . import (
        ObsSession,
        chrome_trace,
        compare_samples,
        folded_stacks,
        get_progress,
        prometheus_text,
        sample_from_dict,
        validate_event_log,
        validate_prometheus_text,
    )

    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        tmp_path = Path(tmp)
        trace_path = tmp_path / "trace.json"
        log_path = tmp_path / "events.jsonl"
        manifest_path = tmp_path / "manifest.json"

        # baseline: untraced, serial
        corpus = _smoke_corpus()
        baseline = run_study(corpus)
        baseline_csv = _measures_bytes(baseline, tmp_path / "baseline.csv")

        # traced, parallel — the worker-merge path
        session = ObsSession(
            command="trace-smoke",
            trace_path=trace_path,
            log_path=log_path,
            manifest_path=manifest_path,
        )
        session.seed = SMOKE_SEED
        session.jobs = SMOKE_JOBS
        # emit a heartbeat on every completion so the smoke corpus is
        # big enough to exercise the progress path deterministically
        get_progress().interval = 0.0
        corpus = _smoke_corpus()
        study = run_study(corpus, jobs=SMOKE_JOBS)
        session.study = study
        session.finalize(status="ok")

        traced_csv = _measures_bytes(study, tmp_path / "traced.csv")
        if traced_csv != baseline_csv:
            failures.append(
                "traced measures CSV differs from the untraced baseline"
            )

        events, problems = validate_event_log(log_path)
        if problems:
            failures.append(
                f"{len(problems)} invalid event lines, first: {problems[0]}"
            )
        if events == 0:
            failures.append("event log is empty")
        # exactly one close event per worker span — forked workers must
        # not write through an inherited --log-json sink
        logged_projects = sum(
            1
            for line in log_path.read_text().splitlines()
            if json.loads(line).get("name") == "project"
        )
        if logged_projects != len(corpus):
            failures.append(
                f"expected {len(corpus)} project span events in the log, "
                f"got {logged_projects}"
            )

        trace = json.loads(trace_path.read_text())
        names = _span_names(trace.get("spans", ()))
        for required in ("generate", "pipeline", "map",
                         "mine", "analyze"):
            if required not in names:
                failures.append(f"span {required!r} missing from trace")
        project_spans = names.count("project")
        if project_spans != len(corpus):
            failures.append(
                f"expected {len(corpus)} project spans, got {project_spans}"
            )

        # progress heartbeats: both fan-out stages must have reported,
        # and the map stage must have completed its count
        heartbeats = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
            if json.loads(line).get("event") == "progress"
        ]
        stages = {record["stage"] for record in heartbeats}
        if "generate" not in stages:
            failures.append("no generate progress heartbeat in the log")
        finals = [
            record for record in heartbeats
            if record["stage"] == "map"
        ]
        if not finals:
            failures.append("no map progress heartbeat in the log")
        elif (
            finals[-1]["done"] != len(corpus)
            or finals[-1]["total"] != len(corpus)
        ):
            failures.append(
                f"final map heartbeat at "
                f"{finals[-1]['done']}/{finals[-1]['total']}, "
                f"expected {len(corpus)}/{len(corpus)}"
            )

        manifest_text = manifest_path.read_text()
        manifest = json.loads(manifest_text)  # must round-trip
        if json.loads(json.dumps(manifest)) != manifest:
            failures.append("manifest does not round-trip through json")
        for key in ("seed", "jobs", "timings", "metrics", "environment"):
            if manifest.get(key) in (None, {}, []):
                failures.append(f"manifest field {key!r} missing or empty")

        # exporters must accept the run's own telemetry
        chrome = chrome_trace(trace)
        complete = [
            event for event in chrome["traceEvents"]
            if event.get("ph") == "X"
        ]
        if len(complete) != len(names):
            failures.append(
                f"chrome export has {len(complete)} complete events for "
                f"{len(names)} spans"
            )
        prom_problems = validate_prometheus_text(
            prometheus_text(manifest["metrics"])
        )
        if prom_problems:
            failures.append(
                f"prometheus export fails its validator: {prom_problems[0]}"
            )
        if not folded_stacks(trace):
            failures.append("folded-stacks export is empty")

        # the perf watchdog must pass a self-comparison of this run
        sample = sample_from_dict(manifest, source="manifest")
        verdict = compare_samples(sample, sample)
        if verdict.failed:
            failures.append(
                "bench-check self-comparison failed: "
                + verdict.render().splitlines()[-1]
            )

    if failures:
        for failure in failures:
            print(f"trace-smoke FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"trace-smoke ok: {len(corpus)} projects, {events} events "
        f"({len(heartbeats)} heartbeats), {project_spans} project spans, "
        "manifest round-trips, exporters + bench-check clean"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
