"""Picklable worker functions for the process-pool fan-out.

The pipeline's map phase ships each cold project shard to a
``ProcessPoolExecutor`` worker through :func:`map_shard` (bound methods
and closures cannot cross the pickle boundary).  Each worker returns its
own stage timings, parse-cache deltas, metrics deltas, warning window
and (when tracing is enabled) the serialised span tree of its work, so
the driver can aggregate a corpus-wide breakdown and reattach every
worker span under its own dispatching span.  A worker's parse cache
holds one history at a time in memory (and shares the on-disk store
when one is configured).

The same functions run in-process on the serial path, so serial and
parallel runs flow through identical instrumentation and produce
identical results.
"""

from __future__ import annotations

import gc
import os
import sys
import time
from dataclasses import dataclass, field

from ..corpus.generator import (
    GeneratedProject,
    ProjectSpec,
    generate_project,
)
from ..corpus.profiles import TaxonProfile
from ..mining import mine_project
from ..obs.context import RunContext, activate, current
from ..obs.metrics import MetricsSnapshot
from ..obs.resources import GcClock, cpu_times, peak_rss_bytes
from .cache import CacheStats


#: CPU clock at this worker's previous shipped sample (or at
#: :func:`worker_init`); ``None`` means this process is the driver
#: (serial path), whose footprint the driver's own sampler windows
#: already cover — workers alone ship samples back.
_worker_cpu_baseline: tuple[float, float] | None = None

#: The worker's cyclic-GC clock, running for the worker's whole life.
_worker_gc: GcClock | None = None


def worker_init(cache_dir: str | None = None) -> None:
    """Give a pool worker its own run context, with no sinks.

    A forked worker inherits the driver's current context, including
    any ``--log-json`` sink holding a duplicated file descriptor; left
    in place, every worker span and warning would be written twice —
    once from the worker and once when the driver replays it at
    attach time.  The worker records into a fresh context instead
    (parse cache under ``cache_dir``, no bus consumers, tracing off
    until a task asks for it): its spans, warnings and metrics travel
    back inside the :class:`MinedHistory` and the driver alone emits
    them.

    Also marks the worker's CPU baseline and starts its GC clock, so
    shipped resource samples report the worker's *work*, not its
    import/fork overhead, and so the serial path (where this
    initializer never runs) ships no sample at all.
    """
    activate(RunContext(cache_dir=cache_dir))
    # a worker forked while --serve is up inherits the listening
    # socket fd; left open, the kernel keeps accepting on the port
    # after the driver shuts the server down (guarded import: a no-op
    # unless the driver loaded the server module)
    server_mod = sys.modules.get("repro.obs.server")
    if server_mod is not None:
        server_mod.close_inherited_sockets()
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
class MinedHistory:
    """One project's mine-only worker result (the stage-graph unit).

    The pipeline's ``mine`` stage stops before analysis so its artifact
    can be reused by every downstream consumer.  Besides the full
    :class:`~repro.mining.ProjectHistory` plus the ground truth the
    ``analyze`` stage needs, it carries everything the driver needs to
    reconstruct cross-process observability: stage seconds and cache
    deltas (summed into :class:`~repro.perf.timing.StudyTimings`), the
    metrics delta of the call, the warnings recorded during it, and the
    project's serialised span tree when tracing is on.
    """

    name: str
    history: object  # ProjectHistory (kept untyped: pickled across pools)
    true_taxon: object
    seconds: float
    cache: CacheStats
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)
    warnings: list[dict] = field(default_factory=list)
    trace: dict | None = None
    resources: dict | None = None


def mine_one(project, *, source: str = "ddl") -> MinedHistory:
    """The per-project unit of the pipeline's ``mine`` stage.

    ``project`` is anything with ``name``, ``repository`` and
    ``true_taxon`` — a generated project or a materialised one.  The
    project's spans are built detached (no parent) and shipped back as
    a dict; the driver reattaches them under its dispatching span.  The
    ``projects.mined`` and ``changes.*`` counters, cache, metrics and
    warning deltas ship back the same way.  Analysis — and the
    empty-history skip decision it makes — happens driver-side in the
    ``analyze`` stage.  ``source`` names the
    :class:`~repro.mining.sources.HistorySource` the schema half mines
    through (the workload's source half; ``"ddl"`` is canonical).
    """
    context = current()
    tracer = context.tracer
    metrics = context.metrics
    recorder = context.recorder
    cache_before = context.cache.stats
    metrics_before = metrics.snapshot()
    warn_mark = recorder.mark()
    with tracer.detached(
        "project", project=project.name, worker=os.getpid()
    ) as span:
        start = time.perf_counter()
        with tracer.span("mine") as mine_span:
            history = mine_project(project.repository, source=source)
            mine_span.set(
                versions=history.schema_history.commit_count,
                months=history.duration_months,
            )
        done = time.perf_counter()
    metrics.inc("projects.mined")
    for kind, count in _change_counts(history).items():
        metrics.inc(f"changes.{kind}", count)
    return MinedHistory(
        name=project.name,
        history=history,
        true_taxon=project.true_taxon,
        seconds=done - start,
        cache=context.cache.stats - cache_before,
        metrics=metrics.snapshot() - metrics_before,
        warnings=recorder.since(warn_mark),
        trace=span.to_dict() if tracer.enabled else None,
        resources=_worker_sample(),
    )


@dataclass
class ShardTask:
    """One cold map shard shipped to the fan-out.

    ``project`` carries the project to mine when it already exists — a
    warm ``generate`` artifact or a materialised corpus's own project;
    ``None`` means the worker generates it first from ``spec`` and
    ``profile``.  A generated project pickles as its text, so the
    worker parses its repository again.  ``source`` names the history
    source the mine half runs through (the workload's source half; the
    default keeps canonical tasks pickle-compatible).  ``trace`` is
    whether the dispatching run traces: the executing context adopts
    it, so a pool worker traces exactly the tasks of a traced run.
    """

    spec: ProjectSpec | None
    profile: TaxonProfile | None
    project: object = None
    source: str = "ddl"
    trace: bool = False


@dataclass
class ShardResult:
    """What one fused map-shard unit hands back to the driver.

    ``generated`` is the freshly generated project when the worker had
    to generate (the driver stores it as the shard's ``generate``
    artifact), ``None`` when the task arrived with its project.  It
    crosses the process boundary as text: the repository the worker
    parsed to mine it stays behind, and the driver never reads it.
    The mine half always runs; its observability channels ride on
    ``mined`` exactly as in the unsharded stage.
    """

    name: str
    mined: MinedHistory
    generated: GeneratedProject | None = None
    generate_seconds: float = 0.0


def map_shard(task: ShardTask) -> ShardResult:
    """The fused per-shard unit of the map phase: generate? + mine.

    One code path for serial (``map``) and parallel (``executor.map``)
    runs: a cold shard generates its project from ``spec.seed`` (bit
    identical regardless of scheduling) and mines it in the same
    worker, so the project never crosses the process boundary twice.
    Analysis stays driver-side — it is orders of magnitude cheaper and
    owns the skip decision.
    """
    current().tracer.enabled = task.trace
    project = task.project
    generated = None
    generate_seconds = 0.0
    if project is None:
        start = time.perf_counter()
        project = generate_project(task.spec, task.profile)
        generate_seconds = time.perf_counter() - start
        generated = project
    return ShardResult(
        name=project.name,
        mined=mine_one(project, source=task.source),
        generated=generated,
        generate_seconds=generate_seconds,
    )


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
