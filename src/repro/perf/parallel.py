"""The map shard's unit of work, and the fan-out that runs it.

The pipeline's map phase hands each cold project shard to
:func:`map_shard`: in process when serial, in a ``ProcessPoolExecutor``
worker under ``--jobs N`` (bound methods and closures cannot cross the
pickle boundary).  The unit finishes the shard where it runs — it
generates, mines and analyzes whatever the driver did not find warm,
and stores each artifact it computed — and hands back only the
``analyze`` payload and the observability of its work, so no project
text or history crosses back.  The driver folds that observability
into a corpus-wide breakdown and reattaches every worker span under
its own dispatching span.  A worker's parse cache holds one history at
a time in memory.
"""

from __future__ import annotations

import gc
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..corpus.generator import generate_project
from ..mining import mine_project
from ..obs.context import RunContext, activate, current
from ..obs.metrics import MetricsSnapshot
from ..obs.resources import GcClock, cpu_times, peak_rss_bytes
from ..pipeline.shards import ShardSpec
from ..pipeline.stages import MinedProject, analyze_one, artifact_meta
from ..pipeline.store import ArtifactStore, StoreStats
from .cache import CacheStats


#: CPU clock at this worker's previous shipped sample (or at
#: :func:`worker_init`); ``None`` means this process is the driver
#: (serial path), whose footprint the driver's own sampler windows
#: already cover — workers alone ship samples back.
_worker_cpu_baseline: tuple[float, float] | None = None

#: The worker's cyclic-GC clock, running for the worker's whole life.
_worker_gc: GcClock | None = None


def worker_init() -> None:
    """Give a pool worker its own run context, with no event log.

    A forked worker inherits the driver's current context, including
    any ``--log-json`` event log holding a duplicated file descriptor;
    left in place, every worker span and warning would be written
    twice — once from the worker and once when the driver replays it
    at attach time.  The worker records into a fresh context instead
    (no event log, tracing off until a task asks for it): its spans,
    warnings and metrics travel back inside each :class:`ShardResult`
    and the driver alone writes them.

    Also marks the worker's CPU baseline and starts its GC clock, so
    shipped resource samples report the worker's *work*, not its
    import/fork overhead, and so the serial path (where this
    initializer never runs) ships no sample at all.
    """
    activate(RunContext())
    global _worker_cpu_baseline, _worker_gc
    _worker_cpu_baseline = cpu_times()
    # forked during a study, the worker inherits the driver's study
    # clock in gc.callbacks: drop it so only the worker's own counts
    gc.callbacks[:] = [
        hook for hook in gc.callbacks
        if not isinstance(getattr(hook, "__self__", None), GcClock)
    ]
    _worker_gc = GcClock().start()


def _worker_sample() -> dict | None:
    """This worker's footprint for the driver, ``None`` on the driver.

    A pool worker is a single-purpose process, so its lifetime peak RSS
    *is* its work's peak — no sampler window needs to cross the pickle
    boundary.  CPU seconds and GC counters cover the interval since
    this worker's previous sample, so the driver's sum over shards is
    the pool's total.
    """
    global _worker_cpu_baseline
    if _worker_cpu_baseline is None:
        return None
    user, system = cpu_times()
    cpu_seconds = max(0.0, user - _worker_cpu_baseline[0]) + max(
        0.0, system - _worker_cpu_baseline[1]
    )
    _worker_cpu_baseline = (user, system)
    return {
        "peak_rss_bytes": peak_rss_bytes(),
        "cpu_seconds": round(cpu_seconds, 6),
        **_worker_gc.take(),
        "pid": os.getpid(),
    }


@dataclass
class ShardTask:
    """One cold map shard, and what its unit needs to finish it.

    The unit starts from the warmest payload the driver found:
    ``mined``, a warm ``mine`` history; else ``project``, a given
    project or a warm ``generate`` text (parsed again where it is
    mined); else it generates the project from ``shard``'s spec.  It
    stores what it computes in ``store`` — the run's store, a copy of
    it in a pool worker — under ``code_versions``, stamped with the
    workload's ``dialect`` and ``source`` (the history source mining
    reads through).  ``trace`` is whether the dispatching run traces:
    the executing context adopts it, so a pool worker traces exactly
    the tasks of a traced run.
    """

    shard: ShardSpec
    store: ArtifactStore
    code_versions: dict[str, str]
    project: object = None
    mined: MinedProject | None = None
    dialect: str | None = None
    source: str = "ddl"
    trace: bool = False


@dataclass
class ShardResult:
    """What a map-shard unit hands back to the driver.

    ``analyzed`` is the shard's ``analyze`` payload, the row the
    aggregate folds; the rest is the observability of the unit's work:
    the ``seconds`` of each stage it computed, its parse-cache, metrics
    and store-stat deltas, its stages' warnings, its span trees when
    tracing, a pool worker's resources, and the store's
    ``store-dir-degraded`` warning if a write failed.
    """

    name: str
    analyzed: dict | None = None
    seconds: dict[str, float] = field(default_factory=dict)
    cache: CacheStats = field(default_factory=CacheStats)
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)
    store: StoreStats = field(default_factory=StoreStats)
    degraded: dict | None = None
    warnings: list[dict] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)
    resources: dict | None = None


@contextmanager
def _stage_window(context: RunContext):
    """Time a stage and collect the warnings and metrics it recorded."""
    window: dict = {}
    mark, before = context.recorder.mark(), context.metrics.snapshot()
    start = time.perf_counter()
    yield window
    window.update(
        seconds=time.perf_counter() - start,
        warnings=context.recorder.since(mark),
        metrics=context.metrics.snapshot() - before,
    )


def map_shard(task: ShardTask) -> ShardResult:
    """The map phase's unit: finish one cold shard where it runs.

    One code path for serial (``map``) and parallel (``executor.map``)
    runs: from the warmest payload the task carries, the unit generates
    the project from ``spec.seed`` (bit identical regardless of
    scheduling), mines it and analyzes it, storing each artifact it
    computed with the meta :func:`~repro.pipeline.stages.artifact_meta`
    builds.  The ``mine`` and ``analyze`` spans nest in one detached
    ``project`` span, which the driver reattaches under its dispatching
    span.
    """
    context = current()
    tracer = context.tracer
    tracer.enabled = task.trace
    shard, store = task.shard, task.store
    store_before, cache_before = store.stats, context.cache.stats
    result = ShardResult(name=shard.project)

    def keep(stage, payload, *, seconds, metrics, warnings=()):
        """Fold one computed stage into the result and store it."""
        result.seconds[stage] = seconds
        result.metrics = result.metrics + metrics
        result.warnings.extend(warnings)
        store.put(shard.keys[stage], payload, meta=artifact_meta(
            stage, task.code_versions[stage], shard=shard,
            dialect=task.dialect, source=task.source,
            seconds=seconds, warnings=warnings, metrics=metrics,
        ))

    project, mined = task.project, task.mined
    if mined is None and project is None:
        start = time.perf_counter()
        project = generate_project(shard.spec, shard.profile)
        seconds = time.perf_counter() - start
        if project.trace is not None:
            result.spans.append(project.trace)
            project.trace = None
        keep("generate", project, seconds=seconds,
             metrics=MetricsSnapshot(counters={"projects.generated": 1}))
    with tracer.detached(
        "project", project=shard.project, worker=os.getpid()
    ) as span:
        if mined is None:
            with _stage_window(context) as window, tracer.span("mine") as mine:
                history = mine_project(project.repository, source=task.source)
                mine.set(
                    versions=history.schema_history.commit_count,
                    months=history.duration_months,
                )
                context.metrics.inc("projects.mined")
                for kind, count in _change_counts(history).items():
                    context.metrics.inc(f"changes.{kind}", count)
            mined = MinedProject(project.name, history, project.true_taxon)
            keep("mine", mined, **window)
        with _stage_window(context) as window, tracer.span("analyze"):
            result.analyzed = analyze_one(mined)
        keep("analyze", result.analyzed, **window)
    if tracer.enabled:
        result.spans.append(span.to_dict())
    result.cache = context.cache.stats - cache_before
    result.store = store.stats - store_before
    result.degraded = store.degraded
    result.resources = _worker_sample()
    return result


def _change_counts(history) -> dict[str, int]:
    """Atomic-change totals by kind over one project's whole history."""
    totals: dict[str, int] = {}
    for transition in history.schema_history.transitions:
        for change in transition.delta.changes:
            kind = change.kind.value
            totals[kind] = totals.get(kind, 0) + 1
    return totals


@dataclass
class WindowStats:
    """What one :func:`window_map` drive actually did.

    ``max_in_flight`` is the high-water mark of simultaneously
    submitted-but-undrained tasks — the memory bound the window
    enforces.  ``shrinks`` counts the times a callable ``window``
    returned a smaller limit than the previous check (the memory
    watchdog's auto-shrink leaves its trail here).
    """

    submitted: int = 0
    completed: int = 0
    max_in_flight: int = 0
    shrinks: int = 0
    _last_limit: int | None = field(default=None, repr=False)

    def as_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "max_in_flight": self.max_in_flight,
            "shrinks": self.shrinks,
        }


def window_map(fn, items, *, executor=None, window=2, stats=None):
    """Backpressured fan-out: map ``fn`` over tasks, a window at a time.

    ``items`` yields ``(tag, kind, value)`` triples in corpus order:

    - ``kind == "ready"`` — ``value`` is already a result (a warm shard
      payload); it flows through untouched, in order.
    - ``kind == "task"`` — ``value`` is an argument for ``fn``.  With an
      ``executor`` it is submitted; serially it is evaluated lazily at
      drain time.  Either way at most ``window`` tasks are in flight at
      once — the producer is *not* advanced while the window is full,
      so planning, submission and result memory are all bounded.

    Yields ``(tag, result)`` strictly in item order (the reduce fold
    must see corpus order to stay byte-identical with a serial run).  ``window`` may be a callable returning the current limit —
    the memory watchdog shrinks it under pressure; a limit drop takes
    effect at the next admission check, draining the surplus before any
    new submission.
    """
    from collections import deque

    if stats is None:
        stats = WindowStats()
    limit = window if callable(window) else (lambda: window)
    pending: deque = deque()

    def drain():
        tag, kind, value = pending.popleft()
        if kind == "task":
            stats.completed += 1
            if executor is None:
                return tag, fn(value)
            return tag, value.result()
        return tag, value

    def current_limit() -> int:
        now = max(1, int(limit()))
        if stats._last_limit is not None and now < stats._last_limit:
            stats.shrinks += 1
        stats._last_limit = now
        return now

    for item in items:
        tag, kind, value = item
        if kind == "task":
            if executor is not None:
                value = executor.submit(fn, value)
            stats.submitted += 1
        pending.append((tag, kind, value))
        in_flight = sum(1 for _, k, _v in pending if k == "task")
        stats.max_in_flight = max(stats.max_in_flight, in_flight)
        # ready fronts drain for free (order-preserving, keeps warm
        # payloads from piling up behind an in-flight task); a full
        # window blocks on the front task before admitting more work
        while pending and (
            pending[0][1] == "ready" or len(pending) >= current_limit()
        ):
            yield drain()
    while pending:
        yield drain()
