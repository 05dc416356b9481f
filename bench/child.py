"""One benchmark child process: a set-up, a study, or an untimed chore.

Run as ``python -m bench.child SPEC.json`` by the harness, never by
hand.  Every timed repeat gets a fresh interpreter because the parse
cache, the warm pool and the other process-wide singletons would
otherwise carry a warm state from one repeat into the next.

Modes (``spec["mode"]``):

``setup``
    Import and open the store, then stop: a set-up time sample.
``run``
    The timed repeat.  It makes the same public calls as
    ``repro report``: ``Pipeline(...).study()`` then ``.report()``.
    With ``spec["trace"]`` it first patches the layer call sites.
``prefill``
    The untimed cold study that fills the incremental workload's store.
    It then picks the projects every repeat will recompute, invalidates
    them (their three map shards and the reduce tail) and reports the
    store files that removed: the files each repeat must write back.
``oracle``
    A set-up sample (on the empty ``spec["setup_store"]``), then,
    untimed, a comparison of sampled ``mine`` shards of the finished
    ``spec["store"]`` against the monolithic reference parser.

The result is written as JSON to ``spec["result"]``.  Times are
``time.monotonic()`` readings, comparable with the parent's clock.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

#: Projects the oracle spot-check samples from a cold store.
ORACLE_SAMPLE = 5


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def make_pipeline(spec: dict, store):
    from repro.pipeline.graph import Pipeline

    return Pipeline(
        seed=spec["seed"],
        projects=spec.get("projects"),
        jobs=spec["jobs"],
        store=store,
        dialect=spec["dialect"],
        limit_memory_mb=spec.get("limit_memory_mb"),
    )


def _study(pipe) -> tuple[str, float, float]:
    """Report sha256, wall seconds and the monotonic end of the study."""
    start = time.perf_counter()
    pipe.study()
    text = pipe.report()
    wall = time.perf_counter() - start
    return hashlib.sha256(text.encode()).hexdigest(), wall, time.monotonic()


def _shutdown_pool(jobs: int) -> None:
    """Join the pool's workers so their CPU and spans are accounted."""
    if jobs > 1:
        from repro.perf.pool import warm_pool

        warm_pool(jobs).shutdown(wait=True)


def _widen(spec: dict) -> None:
    """Set-up runs on one CPU; the study may use all of ``spec["cpus"]``."""
    if spec.get("cpus") and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, spec["cpus"])


def run(spec: dict) -> dict:
    recorder = None
    if spec.get("trace"):
        from .tracing import SpanRecorder

        span_dir = Path(spec["trace"]).parent / "spans"
        span_dir.mkdir(parents=True, exist_ok=True)
        recorder = SpanRecorder(span_dir)
        recorder.install()
    from repro.pipeline.store import DirStore

    pipe = make_pipeline(spec, DirStore(spec["store"]))
    ready, cpu_ready = time.monotonic(), _cpu(resource.RUSAGE_SELF)
    if spec["mode"] == "setup":
        return {"ready": ready}
    _widen(spec)
    sha, wall, end = _study(pipe)
    _shutdown_pool(spec["jobs"])
    result = {
        "ready": ready,
        "cpu_ready": cpu_ready,
        "wall_s": wall,
        "study_end": end,
        "workers_cpu_s": _cpu(resource.RUSAGE_CHILDREN),
        "sha256": sha,
        "cold": len(spec.get("edited") or ()) or pipe.n_projects(),
        "cache": pipe.timings.cache.as_dict(),
        "store": pipe.store.stats.as_dict(),
    }
    if recorder is not None:
        Path(spec["trace"]).write_text(json.dumps(recorder.collect()))
    return result


def pick_edits(pipe, count: int) -> list[str]:
    """Projects at evenly spaced quantiles of their stored shard bytes.

    Picking by size rank instead of at random keeps the work of an
    incremental repeat alike across seeds: project sizes are heavy-
    tailed, so five random projects write anywhere from a tenth to
    several times the median bytes.
    """
    ranked = sorted(
        (sum(pipe.store.size_of(key) or 0 for key in shard.keys.values()),
         shard.project)
        for shard in pipe.shards()
    )
    count = min(count, len(ranked))
    return [ranked[int((i + 0.5) * len(ranked) / count)][1]
            for i in range(count)]


def _files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, files in os.walk(root) for f in files}


def prefill(spec: dict) -> dict:
    from repro.pipeline.store import DirStore

    pipe = make_pipeline(spec, DirStore(spec["store"]))
    _widen(spec)
    sha, _, _ = _study(pipe)
    _shutdown_pool(spec["jobs"])
    edited = pick_edits(pipe, spec["edits"])
    before = _files(spec["store"])
    for name in edited:
        pipe.invalidate(project=name)
    return {"sha256": sha, "edited": edited,
            "rewritten": sorted(before - _files(spec["store"]))}


def oracle(spec: dict) -> dict:
    """Re-derive sampled projects' activity with the reference parser.

    Cold workloads sample :data:`ORACLE_SAMPLE` shards by the seed; the
    incremental workload checks exactly its edited projects, the only
    ones its timed repeats recompute.
    """
    setup = run({**spec, "mode": "setup", "store": spec["setup_store"]})
    from repro.mining.history import SchemaHistory
    from repro.mining.sources import get_source
    from repro.pipeline.store import DirStore

    store = DirStore(spec["store"])
    pipe = make_pipeline(spec, store)
    shards = pipe.shards()
    if spec.get("edited"):
        sample = [s for s in shards if s.project in spec["edited"]]
    else:
        sample = random.Random(spec["seed"]).sample(
            shards, min(ORACLE_SAMPLE, len(shards))
        )
    hint = get_source(pipe.workload.source).dialect_hint

    def activity(schema_history):
        return [(t.index, t.date.isoformat(), t.activity)
                for t in schema_history.transitions]

    mismatches = []
    for shard in sample:
        mined = store.get(shard.keys["mine"])
        generated = store.get(shard.keys["generate"])
        if mined is None or generated is None:
            mismatches.append(f"{shard.project}: shard missing from store")
            continue
        history = mined.payload.history
        reference = SchemaHistory.parse_history_reference(
            generated.payload.repository.versions_of(history.ddl_path),
            dialect=hint,
        )
        if activity(history.schema_history) != activity(reference):
            mismatches.append(
                f"{shard.project}: per-transition activity differs "
                "from the reference parser"
            )
    return {**setup, "checked": len(sample), "mismatches": mismatches}


MODES = {
    "setup": run,
    "run": run,
    "prefill": prefill,
    "oracle": oracle,
}


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    result = MODES[spec["mode"]](spec)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
