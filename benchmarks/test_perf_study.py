"""PERF — per-stage timing of the full study, written to BENCH_study.json.

Not a paper artifact: the machine-readable perf trajectory of the
extraction pipeline.  Each run writes one run-registry record
(``command`` ``bench:study``) at the repo root: the stage breakdown
(generate / mine / analyze / figures), the parse-cache hit rates and,
riding along, a warm re-study that replays the same corpus from an
on-disk artifact store (``warm_restudy``), so future PRs can compare
against the committed history of ``BENCH_study.json`` with
``repro bench-check``.

Run via ``make bench`` — the Makefile refuses to reach this file (and
therefore to overwrite ``BENCH_study.json``) unless the tier-1 suite
passes first.
"""

import json
import os
import time
from pathlib import Path

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_study.json"


def _study_jobs() -> int:
    """Mirror of conftest.study_jobs (kept importable standalone)."""
    try:
        return max(1, int(os.environ.get("REPRO_STUDY_JOBS", "1")))
    except ValueError:
        return 1


def test_study_stage_breakdown_and_bench_json(study, tmp_path_factory):
    """The session study carries timings; persist them machine-readably."""
    timings = study.timings
    assert timings.stages.get("generate", 0) > 0
    assert timings.stages.get("mine", 0) > 0
    assert timings.stages.get("analyze", 0) > 0
    assert timings.cache.lookups > 0

    with timings.timed("figures"):
        study.headline()
        study.fig4()
        study.fig5()
        study.fig6()
        study.fig7()
        study.fig8()

    # warm re-study through one on-disk artifact store: a cold pass
    # fills it, a second pass over the same corpus replays every stage
    # and recomputes nothing.
    from repro.corpus import generate_corpus
    from repro.pipeline import Pipeline
    from repro.pipeline.store import DirStore

    store = DirStore(tmp_path_factory.mktemp("store"))
    corpus = generate_corpus()
    jobs = _study_jobs()
    cold_start = time.perf_counter()
    cold = Pipeline(corpus=corpus, jobs=jobs, store=store).study()
    cold_seconds = time.perf_counter() - cold_start
    warm_start = time.perf_counter()
    warm = Pipeline(corpus=corpus, jobs=jobs, store=store).study()
    warm_seconds = time.perf_counter() - warm_start
    assert cold.projects == study.projects
    assert warm.projects == study.projects
    warm_store = warm.timings.as_dict()["artifact_store"]
    assert warm_store["recomputes"] == 0

    from repro.obs.registry import build_run_record

    record = build_run_record(
        timings.as_dict(),
        command="bench:study",
        projects=len(study),
        skipped=len(study.skipped),
        warning_count=len(study.warnings),
    )
    record["warm_restudy"] = {
        "cold_seconds": round(cold_seconds, 6),
        "seconds": round(warm_seconds, 6),
        "speedup": round(cold_seconds / max(warm_seconds, 1e-9), 2),
        "artifact_store": warm_store,
    }
    BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\n{study.timings.render()}\n[written to {BENCH_PATH}]")


def test_bench_json_is_valid_and_complete(study):
    """The emitted record names every stage and self-compares clean."""
    if not BENCH_PATH.exists():
        import pytest

        pytest.skip("BENCH_study.json not written yet (run the full file)")
    from repro.obs.registry import REGISTRY_FORMAT
    from repro.obs.regress import compare_records

    record = json.loads(BENCH_PATH.read_text())
    assert record["format"] == REGISTRY_FORMAT
    assert record["command"] == "bench:study"
    for stage in ("generate", "mine", "analyze", "figures", "total"):
        assert stage in record["stages"], f"missing stage {stage}"
    assert 0.0 <= record["parse_cache"]["hit_rate"] <= 1.0
    assert record["projects"] == len(study)
    assert record["warm_restudy"]["speedup"] > 1.0
    assert not compare_records(record, record).failed
