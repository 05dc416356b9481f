"""PERF — bounded-memory scaling benchmark, written to BENCH_scale.json.

The streaming engine's contract is that driver memory stays roughly
flat as the corpus grows: the backpressured map window holds a constant
number of shards in flight, the aggregate accumulator spills row
batches, and the parse cache holds one schema history at a time.
This harness measures that directly — one cold capped study per corpus
size (default 195 and 1000 projects, override with
``REPRO_BENCH_SCALE_POINTS=N,M,...``), each into a throwaway on-disk
store under ``--limit-memory`` (default 512 MiB,
``REPRO_BENCH_SCALE_LIMIT_MB``).

The file is one run-registry record (``command`` ``bench:scale``)
whose headline blocks (``stages`` / ``resources`` / ``streaming``)
describe the *largest* corpus, plus a per-size ``scaling`` table that
rides along; ``repro bench-check BENCH_scale.json <candidate>`` gates
its stage seconds and peak RSS against a record of the same corpus
size.  Run via ``make bench-scale`` — gated on the tier-1 suite like
every BENCH writer.
"""

import json
import os
import tempfile
from pathlib import Path

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_scale.json"

DEFAULT_POINTS = (195, 1000)
DEFAULT_LIMIT_MB = 512


def _scale_points() -> tuple[int, ...]:
    raw = os.environ.get("REPRO_BENCH_SCALE_POINTS")
    if not raw:
        return DEFAULT_POINTS
    return tuple(sorted(int(part) for part in raw.split(",") if part))


def test_capped_scaling_and_bench_json():
    """Cold capped studies over growing corpora; persist the record."""
    from repro.obs.context import RunContext
    from repro.obs.registry import build_run_record
    from repro.pipeline.graph import Pipeline
    from repro.pipeline.store import DirStore

    limit_mb = int(
        os.environ.get("REPRO_BENCH_SCALE_LIMIT_MB", DEFAULT_LIMIT_MB)
    )
    points = _scale_points()
    runs: dict[int, dict] = {}
    for n in points:
        with tempfile.TemporaryDirectory(prefix="repro-bench-scale-") as tmp:
            pipe = Pipeline(
                projects=n,
                limit_memory_mb=limit_mb,
                store=DirStore(Path(tmp) / "store"),
                context=RunContext(),
            )
            study = pipe.study()
            runs[n] = {
                "timings": pipe.timings.as_dict(),
                "projects": len(study.projects),
                "skipped": len(study.skipped),
            }

    for n, run in runs.items():
        assert run["projects"] + run["skipped"] == n
        resources = run["timings"].get("resources") or {}
        peak = resources.get("peak_rss_bytes")
        assert peak is not None, f"{n}-project run recorded no RSS"
        assert peak < limit_mb * 2**20, (
            f"{n}-project capped run peaked at {peak / 2**20:.0f} MiB, "
            f"over the {limit_mb} MiB limit"
        )

    # sub-linear: per-project peak RSS must *fall* as the corpus grows
    # (peak may not scale with N — the bar the streaming engine holds)
    small, large = points[0], points[-1]
    small_peak = runs[small]["timings"]["resources"]["peak_rss_bytes"]
    large_peak = runs[large]["timings"]["resources"]["peak_rss_bytes"]
    assert large_peak * small < small_peak * large, (
        f"peak RSS grew {small_peak / 2**20:.0f} -> "
        f"{large_peak / 2**20:.0f} MiB from {small} to {large} projects "
        "(linear or worse)"
    )

    record = build_run_record(
        runs[large]["timings"],
        command="bench:scale",
        projects=large,
        skipped=runs[large]["skipped"],
    )
    record["limit_memory_mb"] = limit_mb
    record["scaling"] = {
        str(n): {
            "projects": n,
            "total_seconds": runs[n]["timings"]["stages"]["total"],
            "peak_rss_bytes": runs[n]["timings"]["resources"][
                "peak_rss_bytes"
            ],
            "streaming": runs[n]["timings"].get("streaming"),
        }
        for n in points
    }
    BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(
        f"\nscale: peak RSS {small_peak / 2**20:.0f} MiB @ {small} -> "
        f"{large_peak / 2**20:.0f} MiB @ {large} projects under a "
        f"{limit_mb} MiB cap\n[written to {BENCH_PATH}]"
    )


def test_bench_scale_json_is_valid():
    """The emitted record parses and self-compares clean."""
    if not BENCH_PATH.exists():
        import pytest

        pytest.skip("BENCH_scale.json not written yet (run the full file)")
    from repro.obs.registry import REGISTRY_FORMAT
    from repro.obs.regress import compare_records

    record = json.loads(BENCH_PATH.read_text())
    assert record["format"] == REGISTRY_FORMAT
    assert record["command"] == "bench:scale"
    assert record["resources"]["peak_rss_bytes"] > 0
    assert record["streaming"] is not None
    assert not compare_records(record, record).failed
