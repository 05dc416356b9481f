"""PERF — mine-only microbenchmark, written to BENCH_mine.json.

The mine stage dominates the cold study run (see BENCH_study.json), so
this harness times it in isolation: the canonical 195-project corpus is
generated once, then every project is mined serially through a fresh
memory-only parse cache (the cold pass).  The parse cache's in-memory
layers live for one schema history, so the only reuse a second pass
can find is the on-disk layer: an untimed pass fills a disk cache, and
the warm pass is timed reading it back through a fresh cache.  The
file is one run-registry record (``command`` ``bench:mine``) — run
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


def test_mine_only_breakdown_and_bench_json(tmp_path):
    """Cold + warm mine over the canonical corpus; persist the record."""
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

    # untimed: fill the disk layer, then time a fresh cache over it
    with RunContext(cache_dir=tmp_path).active():
        for project in corpus:
            mine_project(project.repository)
    with RunContext(cache_dir=tmp_path).active() as warm_run:
        warm_start = time.perf_counter()
        rehistories = [mine_project(p.repository) for p in corpus]
        warm_seconds = time.perf_counter() - warm_start
        warm_stats = warm_run.cache.stats

    assert len(histories) == len(corpus) == len(rehistories)
    total_activity = sum(
        h.schema_history.total_activity for h in histories
    )
    assert total_activity == sum(
        h.schema_history.total_activity for h in rehistories
    ), "warm mine must reproduce the cold activity totals"
    assert warm_stats.hit_rate > 0.95

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
    record["warm_mine"] = {
        "seconds": round(warm_seconds, 6),
        "speedup": round(cold_seconds / max(warm_seconds, 1e-9), 2),
        "parse_cache": warm_stats.as_dict(),
    }
    BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(
        f"\nmine (cold): {cold_seconds:.3f}s over {len(corpus)} projects; "
        f"warm: {warm_seconds:.3f}s\n[written to {BENCH_PATH}]"
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
