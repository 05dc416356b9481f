"""PERF — mine-only microbenchmark, written to BENCH_mine.json.

The mine stage dominates the cold study run (see BENCH_study.json), so
this harness times it in isolation: the canonical 195-project corpus is
generated once, then every project is mined serially through a fresh
run context, whose parse cache lives for one schema history.  Reuse
across runs belongs to the artifact store, which ``warm_restudy`` in
BENCH_study.json measures.  The file is one run-registry record
(``command`` ``bench:mine``) — run
``repro bench-check BENCH_mine.json <candidate> --stage mine`` to gate
the hot path — and carries the statement-level fragment-cache counters
that the incremental parse engine lives or dies by.

``BENCH_mine_baseline.json`` preserves the pre-incremental-engine
record of this same benchmark; it is committed history, never
overwritten.  Run via ``make bench-mine`` — gated on the tier-1 suite
like every BENCH writer.
"""

import json
import time
from pathlib import Path

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_mine.json"


def test_mine_only_breakdown_and_bench_json():
    """A cold serial mine over the canonical corpus; persist the record."""
    from repro.corpus import generate_corpus
    from repro.mining import mine_project
    from repro.obs.context import RunContext
    from repro.obs.registry import build_run_record

    corpus = generate_corpus()
    with RunContext().active() as cold_run:
        cold_start = time.perf_counter()
        histories = [mine_project(p.repository) for p in corpus]
        cold_seconds = time.perf_counter() - cold_start
        cold_stats = cold_run.cache.stats

    assert len(histories) == len(corpus)
    total_activity = sum(
        h.schema_history.total_activity for h in histories
    )
    assert total_activity > 0

    record = build_run_record(
        {
            "jobs": 1,
            "stages": {
                "mine": round(cold_seconds, 6),
                "total": round(cold_seconds, 6),
            },
            "parse_cache": cold_stats.as_dict(),
        },
        command="bench:mine",
        projects=len(corpus),
    )
    record["total_activity"] = total_activity
    BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(
        f"\nmine (cold): {cold_seconds:.3f}s over {len(corpus)} projects"
        f"\n[written to {BENCH_PATH}]"
    )


def test_bench_mine_json_is_valid():
    """The emitted record parses and self-compares clean."""
    if not BENCH_PATH.exists():
        import pytest

        pytest.skip("BENCH_mine.json not written yet (run the full file)")
    from repro.obs.registry import REGISTRY_FORMAT
    from repro.obs.regress import compare_records

    record = json.loads(BENCH_PATH.read_text())
    assert record["format"] == REGISTRY_FORMAT
    assert record["command"] == "bench:mine"
    assert record["stages"]["mine"] > 0
    assert 0.0 <= record["parse_cache"]["hit_rate"] <= 1.0
    assert not compare_records(record, record, stage="mine").failed
