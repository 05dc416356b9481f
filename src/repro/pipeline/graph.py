"""The stage-graph runner: plan shards, fingerprint, resolve, replay.

A :class:`Pipeline` binds the stage graph (:mod:`repro.pipeline.stages`)
to one parameter set (seed, scale, jobs, report format) and one artifact
store.  The map stages (``generate``/``mine``/``analyze``) resolve **per
project shard** — one content-addressed artifact per project, planned by
:mod:`repro.pipeline.shards` from the cheap
:func:`~repro.corpus.generator.corpus_specs` sample — and the reduce
stages (``aggregate``/``figures``/``statistics``/``report``) resolve as
whole-corpus artifacts whose fingerprints chain over the sorted shard
digests.

Resolution is lazy and hit-first: resolving a stage checks the store
under the stage's fingerprint *before* touching its dependencies, so a
warm ``aggregate`` artifact short-circuits the entire map phase —
nothing is re-mined just to prove it wouldn't have changed.  Within a
cold aggregate, each shard is itself hit-first (a warm ``analyze`` shard
never probes its ``mine`` or ``generate`` keys), and only the cold
shards enter the process-pool fan-out.  Editing one project of *N*
therefore recomputes O(1) map work plus the reduce tail, and peak
memory holds one project's history at a time, never the whole corpus.

The corpus is either *sampled* — specs drawn from the seed, each
project generated inside its shard — or *materialised*: projects that
already exist (``corpus=``: a saved corpus, a real clone, a hand-built
scenario), keyed by their content and mined as given.  Both run the same
map/reduce path with the same tracing, progress, watchdog and
provenance, so ``run_study`` over an in-memory corpus and ``repro study
--corpus DIR`` are pipeline runs like any other.

Artifacts carry their observability side-channels in the envelope meta:
the warnings raised while computing and the stage's metrics delta.  On
a hit both replay — warnings into the live recorder (so a warm run's
manifest lists the same ``empty-history`` skips as the cold one) and the
delta into the study metrics — while ``artifact.hit`` / ``artifact.miss``
counters and per-stage :class:`~repro.perf.timing.ArtifactStats` record
what was reused versus recomputed, split map versus reduce.
"""

from __future__ import annotations

import gc
import tempfile
import time
from dataclasses import replace
from typing import Iterable

from ..analysis.study import StudyResult
from ..corpus.generator import DEFAULT_SEED, corpus_specs, iter_corpus_specs
from ..corpus.profiles import corpus_size, scaled_profiles, sized_profiles
from ..obs.context import RunContext, current
from ..obs.metrics import MetricsSnapshot
from ..obs.progress import ProgressTracker
from ..obs.provenance import PROVENANCE_FORMAT, explain_target
from ..obs.resources import MONITOR, GcClock, MemoryWatchdog
from ..perf.parallel import (
    ShardResult,
    ShardTask,
    WindowStats,
    map_shard,
    window_map,
)
from ..perf.pool import warm_pool
from ..perf.timing import StudyTimings
from ..workload import get_workload
from .codec import SHARD_CODECS
from .fingerprint import family_fingerprint, stage_fingerprint
from .shards import ShardSpec, iter_shards, plan_given_shard, plan_shards
from .stages import (
    CODE_VERSIONS,
    MAP_STAGE_NAMES,
    REDUCE_STAGE_NAMES,
    STAGE_NAMES,
    STAGES,
    MinedProject,
    analyze_one,
    dependents_of,
    stage_source_digest,
)
from .store import Artifact, ArtifactStore, NullStore


class Pipeline:
    """One parameterised pass over the sharded stage graph.

    A ``Pipeline`` accumulates timings, metrics and warnings across the
    stages it resolves, so :meth:`study` hands back a
    ``StudyResult`` whose side-channels describe this run — including
    how much of it came warm from the store.  Instances are cheap;
    build a fresh one per run rather than reusing across parameter
    changes.

    ``project_overrides`` maps project name → replacement per-project
    seed: the named projects' specs are re-seeded before shard planning,
    so exactly their map cones (plus the reduce tail) re-key — the
    surgical "edit one project" scenario.

    ``corpus`` supplies materialised projects (anything with ``name``,
    ``repository`` and ``true_taxon``) instead of sampling
    ``corpus_specs``: each shard is keyed by the project's content
    (:func:`~repro.pipeline.shards.project_digest`) and its ``generate``
    stage is the given project, so seed, scale and size do not apply.

    ``context`` is the :class:`~repro.obs.context.RunContext` the run
    records into — its tracer, warnings, metrics, bus and progress —
    and whose parse cache and artifact store it uses unless ``store``
    is given.  It defaults to the current context.
    """

    def __init__(
        self,
        *,
        seed: int = DEFAULT_SEED,
        scale: int = 1,
        jobs: int = 1,
        report_format: str = "markdown",
        store: ArtifactStore | None = None,
        code_versions: dict[str, str] | None = None,
        project_overrides: dict[str, int] | None = None,
        corpus: Iterable | None = None,
        projects: int | None = None,
        limit_memory_mb: int | None = None,
        window: int | None = None,
        dialect: str | None = None,
        context: RunContext | None = None,
    ):
        self.context = context if context is not None else current()
        self.seed = seed
        self.scale = scale
        #: The workload's dialect (``--dialect``); ``None`` is the
        #: canonical MySQL/Postgres workload, whose shard keys and
        #: artifacts predate — and must stay byte-identical to — the
        #: workload interface.  Non-default dialects re-key the whole
        #: map family (vendor in ``spec_digest`` + the ``dialect``
        #: identity component), and the reduce tail re-keys with it
        #: through the family fingerprints, zero reduce changes needed.
        self.dialect = dialect
        self.workload = get_workload(dialect)
        #: Scale-out knob: an absolute corpus size (``--projects N``,
        #: the canonical taxa mix re-sized); ``None`` keeps the
        #: ``scale`` divisor semantics.
        self.projects = projects
        #: Driver memory cap in MiB (``--limit-memory``): enforced by a
        #: warn-then-fail watchdog in the streaming map loop, and turns
        #: on the aggregate accumulator's disk spill.
        self.limit_memory_mb = limit_memory_mb
        #: In-flight window for the backpressured fan-out; ``None``
        #: derives ``max(2, 2 * jobs)``.
        self.window = window
        self.jobs = max(1, jobs)
        self.report_format = report_format
        self.store = store if store is not None else self.context.store
        self.code_versions = {**CODE_VERSIONS, **(code_versions or {})}
        self.project_overrides = dict(project_overrides or {})
        self.timings = StudyTimings(jobs=self.jobs)
        self.metrics = MetricsSnapshot()
        self.warnings: list[dict] = []
        #: Where the aggregate accumulator spills row batches; set for
        #: the duration of a bounded-memory aggregate recompute.
        self.spill_dir: str | None = None
        #: The materialised projects, in corpus order (``None`` samples
        #: the corpus from the seed).
        self.corpus = None if corpus is None else list(corpus)
        if self.corpus is not None and self.project_overrides:
            raise ValueError(
                "project_overrides re-seed sampled projects; "
                "a materialised corpus has no seeds to override"
            )
        self._shards: list[ShardSpec] | None = None
        self._fingerprints: dict[str, str] = {}
        self._resolved: dict[str, Artifact] = {}
        self._map_delta = MetricsSnapshot()
        self._study = None

    # -- planning ------------------------------------------------------
    def profiles(self):
        """The corpus composition this pipeline samples from."""
        if self.projects is not None:
            return sized_profiles(self.projects)
        return scaled_profiles(self.scale)

    def n_projects(self) -> int:
        """How many projects the plan covers — O(1), nothing sampled."""
        if self._shards is not None:
            return len(self._shards)
        if self.corpus is not None:
            return len(self.corpus)
        return corpus_size(self.profiles())

    def iter_shards(self):
        """Stream the shard plan in corpus order, one spec at a time.

        The streaming twin of :meth:`shards`: on the default sampling
        path nothing is memoised — specs stream off
        :func:`~repro.corpus.generator.iter_corpus_specs` and each
        :class:`ShardSpec` is released after its consumer folds it, so
        a 100k-project plan never exists as a list.  Materialised
        corpora and override re-seeding fall back to the memoised list
        (they hold the projects or pairs anyway).
        """
        if (
            self._shards is not None
            or self.corpus is not None
            or self.project_overrides
        ):
            yield from self.shards()
            return
        yield from iter_shards(
            iter_corpus_specs(
                seed=self.seed,
                profiles=self.profiles(),
                dialect=self.dialect,
            ),
            self.code_versions,
            self.dialect,
        )

    def shards(self) -> list[ShardSpec]:
        """The per-project shard plan, in corpus order (memoised).

        Planning samples only project *specs* — no commit is generated —
        so a fully warm run never pays for generation.  Overridden
        projects are re-seeded here, before keys are derived.  A
        materialised corpus plans one content-keyed shard per project.
        """
        if self._shards is None and self.corpus is not None:
            self._shards = [
                plan_given_shard(
                    index, project, self.code_versions, self.dialect
                )
                for index, project in enumerate(self.corpus)
            ]
        if self._shards is None:
            pairs = corpus_specs(
                seed=self.seed,
                profiles=self.profiles(),
                dialect=self.dialect,
            )
            if self.project_overrides:
                known = {spec.name for spec, _ in pairs}
                unknown = sorted(set(self.project_overrides) - known)
                if unknown:
                    raise ValueError(
                        "project_overrides name unknown project(s): "
                        + ", ".join(unknown)
                    )
                pairs = [
                    (
                        replace(
                            spec,
                            seed=self.project_overrides.get(
                                spec.name, spec.seed
                            ),
                        ),
                        profile,
                    )
                    for spec, profile in pairs
                ]
            self._shards = plan_shards(
                pairs, self.code_versions, self.dialect
            )
        return self._shards

    # -- keys ----------------------------------------------------------
    def params_for(self, stage: str) -> dict:
        """The parameter subset stage ``stage`` declares it consumes."""
        return {name: getattr(self, name) for name in STAGES[stage].params}

    def fingerprint(self, stage: str) -> str:
        """The stage's content address under this parameter set.

        Map stages address their shard *family* — the digest of their
        sorted per-shard keys — which is what the reduce chain folds;
        the per-shard keys themselves live on :meth:`shards`.
        """
        cached = self._fingerprints.get(stage)
        if cached is None:
            spec = STAGES[stage]
            if spec.kind == "map":
                self._ensure_map_fingerprints()
                cached = self._fingerprints[stage]
            else:
                cached = stage_fingerprint(
                    stage,
                    self.code_versions[stage],
                    self.params_for(stage),
                    {dep: self.fingerprint(dep) for dep in spec.deps},
                )
            self._fingerprints[stage] = cached
        return cached

    def _ensure_map_fingerprints(self) -> None:
        """Family fingerprints for all map stages in one streaming pass.

        The family digest needs every shard key, so this is the one
        place planning must visit the whole corpus — but it retains
        only the key strings (all three stages per pass), never the
        specs, keeping the footprint a few dozen bytes per project.
        """
        if all(stage in self._fingerprints for stage in MAP_STAGE_NAMES):
            return
        keys: dict[str, list[str]] = {
            stage: [] for stage in MAP_STAGE_NAMES
        }
        for shard in self.iter_shards():
            for stage in MAP_STAGE_NAMES:
                keys[stage].append(shard.keys[stage])
        for stage in MAP_STAGE_NAMES:
            self._fingerprints[stage] = family_fingerprint(
                stage, keys[stage]
            )

    # -- resolution ----------------------------------------------------
    def resolve(self, stage: str) -> Artifact:
        """The stage's artifact: from the store when warm, else computed.

        The store lookup happens before dependency resolution, so a hit
        on this stage never recurses upstream.  Map stages have no
        whole-corpus artifact — they resolve shard by shard inside
        ``aggregate`` — so asking for one is a programming error.
        """
        with self.context.active():
            return self._resolve(stage)

    def _resolve(self, stage: str) -> Artifact:
        spec = STAGES[stage]
        if spec.kind == "map":
            raise ValueError(
                f"map stage {stage!r} resolves per shard; "
                "resolve 'aggregate' for the folded corpus"
            )
        done = self._resolved.get(stage)
        if done is not None:
            return done
        if stage == "aggregate":
            return self._resolve_aggregate()
        key = self.fingerprint(stage)
        load_start = time.perf_counter()
        artifact = self.store.get(key)
        if artifact is not None:
            return self._consume_hit(
                stage, key, artifact, time.perf_counter() - load_start
            )
        self._count_miss(stage)
        inputs = {dep: self._resolve(dep).payload for dep in spec.deps}
        recorder = self.context.recorder
        mark = recorder.mark()
        with self.context.tracer.span(
            f"stage:{stage}", artifact="recompute", fingerprint=key[:12]
        ), MONITOR.window() as window:
            start = time.perf_counter()
            output = spec.compute(self, inputs)
            seconds = time.perf_counter() - start
        self.timings.record_resource(stage, window.sample)
        self.timings.record(stage, seconds)
        window = recorder.since(mark)
        self.warnings.extend(window)
        self.metrics = self.metrics + output.metrics
        artifact = self._put(
            stage, key, output.payload,
            seconds=seconds, warnings=window, metrics=output.metrics,
        )
        self._resolved[stage] = artifact
        return artifact

    def _resolve_aggregate(self) -> Artifact:
        """Resolve ``aggregate``: warm hit, or streaming map + fold.

        On a miss the recorder is marked *before* the map phase, so the
        stored meta window spans every shard warning — replayed warm
        ones and freshly raised ones alike — and a later warm aggregate
        hit replays the full map phase's warnings and metrics without
        touching a single shard key.

        The fold *consumes the map generator*: each shard's ``analyze``
        payload streams into the aggregate accumulator and is released,
        so driver memory holds the in-flight window plus the
        accumulated rows, never the corpus.  The recorded ``aggregate``
        seconds stay fold-only (producer time is measured out), keeping
        the stage breakdown comparable with pre-streaming records.
        """
        from .stages import compute_aggregate

        stage = "aggregate"
        key = self.fingerprint(stage)
        load_start = time.perf_counter()
        artifact = self.store.get(key)
        if artifact is not None:
            return self._consume_hit(
                stage, key, artifact, time.perf_counter() - load_start
            )
        self._count_miss(stage)
        recorder = self.context.recorder
        mark = recorder.mark()
        self._map_delta = MetricsSnapshot()
        produced = [0.0]

        def timed_payloads():
            source = self._iter_map_payloads()
            while True:
                tick = time.perf_counter()
                try:
                    payload = next(source)
                except StopIteration:
                    produced[0] += time.perf_counter() - tick
                    return
                produced[0] += time.perf_counter() - tick
                yield payload

        spill = None
        if self.limit_memory_mb:
            spill = tempfile.TemporaryDirectory(prefix="repro-spill-")
        try:
            if spill is not None:
                self.spill_dir = spill.name
            with self.context.tracer.span(
                f"stage:{stage}", artifact="recompute", fingerprint=key[:12]
            ), MONITOR.window() as window:
                fold_start = time.perf_counter()
                output = compute_aggregate(
                    self, {"analyze": timed_payloads()}
                )
                seconds = (
                    time.perf_counter() - fold_start - produced[0]
                )
        finally:
            self.spill_dir = None
            if spill is not None:
                spill.cleanup()
        # the window spans map + fold: the map phase is where the
        # driver's footprint actually peaks (shard payloads in flight)
        self.timings.record_resource(stage, window.sample)
        self.timings.record(stage, max(0.0, seconds))
        window = recorder.since(mark)
        self.warnings.extend(window)
        metrics_out = self._map_delta + output.metrics
        self.metrics = self.metrics + metrics_out
        artifact = self._put(
            stage, key, output.payload,
            seconds=seconds, warnings=window, metrics=metrics_out,
        )
        self._resolved[stage] = artifact
        return artifact

    def map_window(self) -> int:
        """The fan-out's initial in-flight window (the memory bound)."""
        if self.window is not None:
            return max(1, self.window)
        return max(2, 2 * self.jobs)

    def _iter_map_payloads(self):
        """Stream every shard's ``analyze`` payload, warmest path first.

        Per shard: a warm ``analyze`` artifact wins outright (its
        ``mine``/``generate`` keys are never probed); a warm ``mine``
        artifact re-analyzes driver-side; otherwise the shard joins the
        backpressured fan-out — carrying its given project, or its warm
        ``generate`` payload if one exists, generating in the worker if
        neither.  The fan-out runs through
        :func:`~repro.perf.parallel.window_map`, so at
        most :meth:`map_window` shards are in flight at once, the
        planner is not advanced while the window is full, and each
        payload is yielded — then released — in corpus order, the
        order the aggregate folds.

        Under ``--limit-memory`` a
        :class:`~repro.obs.resources.MemoryWatchdog` probes the driver
        RSS after every fold: crossing the warn line halves the window
        (floor 1), while crossing the cap raises
        :class:`~repro.obs.resources.MemoryLimitExceeded`.

        The heap that exists before the fan-out (imports, the plan's
        inputs) is frozen out of the cyclic GC for the generator's
        life, before the pool can fork: neither the driver nor its
        forked workers re-walk it on every oldest-generation
        collection.
        """
        total = self.n_projects()
        stats = WindowStats()
        limit = [self.map_window()]
        watchdog = None
        if self.limit_memory_mb:
            watchdog = MemoryWatchdog(self.limit_memory_mb * 2 ** 20)
        tracker = ProgressTracker(
            "map", total, channel=self.context.progress,
            timings=self.timings, parallelism=min(self.jobs, limit[0]),
        )

        def planned():
            for shard in self.iter_shards():
                warm_analyze = self._load_shard("analyze", shard)
                if warm_analyze is not None:
                    yield (shard, "ready", ("analyze", warm_analyze.payload))
                    continue
                warm_mine = self._load_shard("mine", shard)
                if warm_mine is not None:
                    yield (shard, "ready", ("mine", warm_mine.payload))
                    continue
                project = shard.given
                if project is None:
                    warm_generate = self._load_shard("generate", shard)
                    if warm_generate is not None:
                        project = warm_generate.payload
                yield (
                    shard,
                    "task",
                    ShardTask(
                        spec=shard.spec,
                        profile=shard.profile,
                        project=project,
                        source=self.workload.source,
                        trace=self.context.tracer.enabled,
                    ),
                )

        gc.freeze()
        try:
            executor = (
                warm_pool(self.jobs, self.context.cache.cache_dir)
                if self.jobs > 1 else None
            )
            with self.context.tracer.span("map", shards=total):
                for shard, value in window_map(
                    map_shard,
                    planned(),
                    executor=executor,
                    window=lambda: limit[0],
                    stats=stats,
                ):
                    if isinstance(value, ShardResult):
                        payload = self._finish_shard(shard, value)
                        tracker.update(value.name, value.mined.seconds)
                        self._publish_metrics()
                    else:
                        kind, warm = value
                        if kind == "analyze":
                            payload = warm
                        else:
                            payload = self._analyze_shard(shard, warm)
                        tracker.update(shard.project)
                    if (
                        watchdog is not None
                        and watchdog.check() == "pressure"
                        and limit[0] > 1
                    ):
                        limit[0] = max(1, limit[0] // 2)
                        tracker.set_parallelism(min(self.jobs, limit[0]))
                    yield payload
            tracker.finish()
        finally:
            gc.unfreeze()
            self.timings.record_streaming(
                "window",
                {
                    "initial": self.map_window(),
                    "final": limit[0],
                    **stats.as_dict(),
                },
            )
            if watchdog is not None:
                self.timings.record_streaming(
                    "memory_watchdog", watchdog.as_dict()
                )

    def _finish_shard(self, shard: ShardSpec, result) -> dict:
        """Store one fan-out result's artifacts and analyze the shard."""
        tracer = self.context.tracer
        recorder = self.context.recorder
        if result.generated is not None:
            project = result.generated
            if project.trace is not None:
                tracer.attach(project.trace, emit=self.jobs > 1)
                project.trace = None
            self.timings.record("generate", result.generate_seconds)
            generated_delta = MetricsSnapshot(
                counters={"projects.generated": 1}
            )
            self._map_delta = self._map_delta + generated_delta
            self._store_shard(
                "generate", shard, project,
                seconds=result.generate_seconds,
                warnings=(), metrics=generated_delta,
            )
        mined = result.mined
        self.timings.record("mine", mined.seconds)
        self.timings.merge_cache(mined.cache)
        if mined.resources is not None:
            # worker peaks fold by max into one "workers" scope: the
            # pool's footprint is its worst process, not their sum
            self.timings.record_resource("workers", mined.resources)
        self._map_delta = self._map_delta + mined.metrics
        if mined.trace is not None:
            tracer.attach(mined.trace, emit=self.jobs > 1)
        if mined.warnings and self.jobs > 1:
            # worker warnings replay here so the driver's recorder (and
            # any --log-json sink) sees them exactly once
            for record in mined.warnings:
                recorder.replay(record)
        entry = MinedProject(
            name=mined.name,
            history=mined.history,
            true_taxon=mined.true_taxon,
        )
        self._store_shard(
            "mine", shard, entry,
            seconds=mined.seconds,
            warnings=mined.warnings, metrics=mined.metrics,
        )
        return self._analyze_shard(shard, entry)

    def _analyze_shard(self, shard: ShardSpec, mined: MinedProject) -> dict:
        """Analyze one shard driver-side and store its artifact."""
        registry = self.context.metrics
        recorder = self.context.recorder
        before = registry.snapshot()
        mark = recorder.mark()
        start = time.perf_counter()
        with self.context.tracer.span("analyze", project=shard.project):
            payload = analyze_one(mined)
        seconds = time.perf_counter() - start
        self.timings.record("analyze", seconds)
        delta = registry.snapshot() - before
        self._map_delta = self._map_delta + delta
        self._store_shard(
            "analyze", shard, payload,
            seconds=seconds,
            warnings=recorder.since(mark), metrics=delta,
        )
        return payload

    def _shard_present(self, stage: str, shard: ShardSpec) -> bool:
        """Whether a shard's ``stage`` output exists — no accounting.

        A given project *is* its shard's ``generate`` output, so that
        stage counts as present although it is never stored.
        """
        if stage == "generate" and shard.given is not None:
            return True
        return self.store.contains(shard.keys[stage])

    def _load_shard(self, stage: str, shard: ShardSpec) -> Artifact | None:
        """One shard-key probe: hit replays its meta, miss counts one.

        Shard-hit warnings replay into the live recorder only — the
        aggregate's meta window (marked before the map phase) picks
        them up, and ``self.warnings`` receives them once when that
        window lands.  Metrics deltas fold into the map delta for the
        same reason; hit/miss *counters* go straight to the live run
        accounting, never into stored meta.
        """
        key = shard.keys[stage]
        load_start = time.perf_counter()
        artifact = self.store.get(key)
        if artifact is None:
            self._count_miss(stage)
            return None
        load_seconds = time.perf_counter() - load_start
        self.context.metrics.inc("artifact.hit")
        self.metrics = self.metrics + MetricsSnapshot(
            counters={"artifact.hit": 1}
        )
        self.timings.record_artifact(stage, hit=True)
        self.timings.record(stage, load_seconds)
        self._publish_artifact(
            stage, "hit", project=shard.project, key=key
        )
        recorder = self.context.recorder
        for record in artifact.meta.get("warnings") or ():
            recorder.replay(record)
        delta = artifact.meta.get("metrics")
        if delta is not None:
            self._map_delta = self._map_delta + delta
        return artifact

    # -- provenance ----------------------------------------------------
    def _reduce_provenance(self, stage: str) -> dict:
        """The current plan's fingerprint breakdown for a reduce stage."""
        spec = STAGES[stage]
        return {
            "format": PROVENANCE_FORMAT,
            "stage": stage,
            "kind": "reduce",
            "code_version": self.code_versions[stage],
            "params": dict(self.params_for(stage)),
            "upstream": {
                dep: self.fingerprint(dep) for dep in spec.deps
            },
            "source_digest": stage_source_digest(stage),
        }

    def _shard_provenance(self, stage: str, shard: ShardSpec) -> dict:
        """One shard's breakdown: identity params + map-cone upstream."""
        return {
            "format": PROVENANCE_FORMAT,
            "stage": stage,
            "kind": "map",
            "project": shard.project,
            "code_version": self.code_versions[stage],
            # only generate folds the identity into its params; the
            # downstream cone inherits it through the upstream chain
            "params": (
                dict(shard.identity) if stage == "generate" else {}
            ),
            "upstream": shard.upstream(stage),
            "source_digest": stage_source_digest(stage),
        }

    def explain(
        self, stage: str, *, project: str | None = None
    ) -> list[dict]:
        """Why each target of ``stage`` is warm, stale, or cold.

        Reduce stages yield one record; map stages one per shard
        (narrowed to one project with ``project``).  Each record diffs
        the stored breakdown of the best-matching prior artifact
        against the current plan — see
        :func:`repro.obs.provenance.explain_target`.
        """
        if stage not in STAGES:
            raise KeyError(stage)
        if STAGES[stage].kind == "map":
            shards = self.shards()
            if project is not None:
                shards = [s for s in shards if s.project == project]
                if not shards:
                    raise KeyError(project)
            return [
                explain_target(
                    self.store,
                    stage,
                    shard.keys[stage],
                    self._shard_provenance(stage, shard),
                    project=shard.project,
                    present=self._shard_present(stage, shard),
                )
                for shard in shards
            ]
        if project is not None:
            raise ValueError(
                f"reduce stage {stage!r} has no per-project shards"
            )
        return [
            explain_target(
                self.store,
                stage,
                self.fingerprint(stage),
                self._reduce_provenance(stage),
            )
        ]

    # -- live telemetry ------------------------------------------------
    def _publish_artifact(
        self,
        stage: str,
        outcome: str,
        *,
        project: str | None = None,
        key: str | None = None,
    ) -> None:
        """One ``artifact`` bus event per store hit / recompute.

        Gated on live consumers: with nothing subscribed (no server, no
        dashboard, no event log) this is one attribute check, so the
        unobserved hot path stays unobserved.  These events never reach
        the JSONL event log — its bus sink filters them out — so log
        bytes are unchanged by serving.
        """
        bus = self.context.bus
        if not bus.active:
            return
        data: dict = {
            "event": "artifact",
            "ts": round(time.time(), 6),
            "stage": stage,
            "outcome": outcome,
        }
        if project is not None:
            data["project"] = project
        if key is not None:
            data["fingerprint"] = key[:16]
        bus.publish("artifact", data)

    def _publish_metrics(self) -> None:
        """A cumulative counter snapshot for live rate displays.

        Published after each shard completes (and once at study end) so
        ``repro obs top`` can show parse-cache and statement-reuse
        rates while the run is still going.  Same gating as
        :meth:`_publish_artifact`.
        """
        bus = self.context.bus
        if not bus.active:
            return
        counters = dict(
            MetricsSnapshot().fold_cache(self.timings.cache).counters
        )
        for name in ("artifact.hit", "artifact.miss"):
            if self.metrics.counters.get(name):
                counters[name] = self.metrics.counters[name]
        bus.publish(
            "metrics",
            {
                "event": "metrics",
                "ts": round(time.time(), 6),
                "counters": counters,
            },
        )

    # -- store plumbing ------------------------------------------------
    def _consume_hit(
        self, stage: str, key: str, artifact: Artifact, load_seconds: float
    ) -> Artifact:
        """Account one reduce-stage hit and replay its side-channels."""
        self.context.metrics.inc("artifact.hit")
        self.metrics = self.metrics + MetricsSnapshot(
            counters={"artifact.hit": 1}
        )
        self._publish_artifact(stage, "hit", key=key)
        self.timings.record_artifact(stage, hit=True)
        # the honest cost of a hit: just the load
        self.timings.record(stage, load_seconds)
        with self.context.tracer.span(
            f"stage:{stage}", artifact="hit", fingerprint=key[:12]
        ):
            pass
        recorder = self.context.recorder
        for record in artifact.meta.get("warnings") or ():
            # warm runs surface the cold run's warnings — the manifest
            # of a replayed study matches the original
            recorder.replay(record)
            self.warnings.append(record)
        delta = artifact.meta.get("metrics")
        if delta is not None:
            self.metrics = self.metrics + delta
        self._resolved[stage] = artifact
        return artifact

    def _count_miss(self, stage: str) -> None:
        self.context.metrics.inc("artifact.miss")
        self.metrics = self.metrics + MetricsSnapshot(
            counters={"artifact.miss": 1}
        )
        self.timings.record_artifact(stage, hit=False)

    def _put(
        self, stage: str, key: str, payload, *,
        seconds: float, warnings, metrics: MetricsSnapshot,
    ) -> Artifact:
        self._publish_artifact(stage, "recompute", key=key)
        meta = {
            "stage": stage,
            "params": self.params_for(stage),
            "code_version": self.code_versions[stage],
            "source_digest": stage_source_digest(stage),
            "provenance": self._reduce_provenance(stage),
            "seconds": round(seconds, 6),
            "warnings": list(warnings),
            "metrics": metrics,
        }
        if self.dialect is not None:
            # non-default workloads stamp their (dialect, source) pair;
            # canonical meta stays byte-compatible with old stores
            meta["dialect"] = self.dialect
            meta["source"] = self.workload.source
        return self.store.put(key, payload, meta=meta)

    def _store_shard(
        self, stage: str, shard: ShardSpec, payload, *,
        seconds: float, warnings, metrics: MetricsSnapshot,
    ) -> Artifact:
        self._publish_artifact(
            stage, "recompute",
            project=shard.project, key=shard.keys[stage],
        )
        meta = {
            "stage": stage,
            "project": shard.project,
            "code_version": self.code_versions[stage],
            "source_digest": stage_source_digest(stage),
            "provenance": self._shard_provenance(stage, shard),
            "seconds": round(seconds, 6),
            "warnings": list(warnings),
            "metrics": metrics,
        }
        if self.dialect is not None:
            meta["dialect"] = self.dialect
            meta["source"] = self.workload.source
        codec = SHARD_CODECS.get(stage)
        if codec is not None:
            # mine shards go to disk through the compact tuple codec
            # (MemoryStore keeps the live object and ignores the tag)
            meta["codec"] = codec
        return self.store.put(shard.keys[stage], payload, meta=meta)

    # -- whole-study entry points --------------------------------------
    def study(self):
        """Resolve aggregate + figures + statistics into a ``StudyResult``.

        The result's figures, headline and statistics are primed from
        the resolved artifacts, so accessors replay stored values
        instead of recomputing.  Memoised per pipeline: a second call
        returns the same object.

        Over a :class:`~repro.pipeline.store.NullStore` the
        ``statistics`` stage is skipped: with nothing to replay later,
        the result's own accessor computes the §7 battery from its rows
        on first read, so a caller that never reads it never pays for
        the Monte-Carlo test, the costliest reduce stage.
        """
        if self._study is not None:
            return self._study
        with self.context.active():
            return self._run_study()

    def _run_study(self):
        tracer = self.context.tracer
        start = time.perf_counter()
        corpus_attrs = (
            {"seed": self.seed, "scale": self.scale}
            if self.corpus is None else {"corpus": len(self.corpus)}
        )
        with tracer.span(
            "pipeline", jobs=self.jobs, **corpus_attrs
        ), MONITOR.window() as window, GcClock() as gc_clock:
            aggregate = self._resolve("aggregate")
            figures = self._resolve("figures")
            battery = (
                None if isinstance(self.store, NullStore)
                else self._resolve("statistics")
            )
        self.timings.record_resource(
            "driver", {**window.sample.as_dict(), **gc_clock.as_dict()}
        )
        self.metrics.fold_cache(self.timings.cache)
        self.timings.record_wall(time.perf_counter() - start)
        self._publish_metrics()
        result = StudyResult(
            projects=list(aggregate.payload["rows"]),
            skipped=list(aggregate.payload["skipped"]),
            timings=self.timings,
            metrics=self.metrics,
            warnings=list(self.warnings),
        )
        result.prime_artifacts(
            figures=figures.payload,
            statistics=None if battery is None else battery.payload,
        )
        self._study = result
        return result

    def report(self) -> str:
        """The rendered report text (``report_format``), store-resolved."""
        return self.resolve("report").payload

    # -- maintenance ---------------------------------------------------
    def status(self) -> list[dict]:
        """One row per stage: fingerprint, warm/cold, stored size.

        Map rows carry the shard totals (``shards`` planned versus
        ``warm_shards`` stored, ``size_bytes`` summed over the warm
        ones) and count as warm only when *every* shard is; a given
        project's ``generate`` shard is always warm.  Reduce rows keep
        the one-artifact shape with ``shards`` set to ``None``.
        """
        rows = []
        shards = self.shards()
        for name in STAGE_NAMES:
            key = self.fingerprint(name)
            if STAGES[name].kind == "map":
                warm_keys = [
                    shard.keys[name] for shard in shards
                    if self._shard_present(name, shard)
                ]
                rows.append(
                    {
                        "stage": name,
                        "kind": "map",
                        "code_version": self.code_versions[name],
                        "fingerprint": key,
                        "shards": len(shards),
                        "warm_shards": len(warm_keys),
                        "warm": bool(shards)
                        and len(warm_keys) == len(shards),
                        "size_bytes": (
                            sum(
                                self.store.size_of(k) or 0
                                for k in warm_keys
                            )
                            if warm_keys else None
                        ),
                    }
                )
            else:
                warm = self.store.contains(key)
                rows.append(
                    {
                        "stage": name,
                        "kind": "reduce",
                        "code_version": self.code_versions[name],
                        "fingerprint": key,
                        "shards": None,
                        "warm_shards": None,
                        "warm": warm,
                        "size_bytes": (
                            self.store.size_of(key) if warm else None
                        ),
                    }
                )
        return rows

    def shard_status(
        self, *, limit: int | None = None, offset: int = 0
    ) -> list[dict]:
        """Per-project warmth: one row per shard, one flag per map stage.

        ``limit``/``offset`` paginate over the *streamed* plan — a
        50k-shard store answers a one-page status probe without
        planning (or printing) 50k rows.  The defaults keep the full
        listing for small corpora and existing callers.
        """
        rows: list[dict] = []
        for shard in self.iter_shards():
            if shard.index < offset:
                continue
            if limit is not None and len(rows) >= limit:
                break
            rows.append(
                {
                    "project": shard.project,
                    **{
                        stage: self._shard_present(stage, shard)
                        for stage in MAP_STAGE_NAMES
                    },
                }
            )
        return rows

    def version_drift(self) -> list[dict]:
        """Stages whose stored source digest disagrees with the code.

        The drift guard behind ``pipeline status``: a stage is *stale*
        when a stored artifact carries the current ``code_version`` but
        a different source digest — the module changed and nobody
        bumped the constant, so warm artifacts silently replay the old
        computation.  Map stages check their first warm shard (all
        shards of a stage share one code path); stages with no warm
        artifact have nothing to drift.
        """
        drifted = []
        for name in STAGE_NAMES:
            if STAGES[name].kind == "map":
                meta = None
                for shard in self.shards():
                    meta = self.store.meta_of(shard.keys[name])
                    if meta is not None:
                        break
            else:
                meta = self.store.meta_of(self.fingerprint(name))
            if not meta:
                continue
            stored = meta.get("source_digest")
            current = stage_source_digest(name)
            if (
                stored
                and stored != current
                and meta.get("code_version") == self.code_versions[name]
            ):
                drifted.append(
                    {
                        "stage": name,
                        "code_version": self.code_versions[name],
                        "stored": stored,
                        "current": current,
                    }
                )
        return drifted

    def invalidate(
        self, stage: str | None = None, *, project: str | None = None
    ) -> int:
        """Drop artifacts and everything downstream of them.

        ``project`` names one shard: its ``generate``/``mine``/
        ``analyze`` artifacts plus the whole reduce tail go (the
        surgical single-project invalidation).  ``stage`` drops that
        stage — every shard of it, for a map stage — and its
        dependents; ``None`` (and no project) drops everything.  Only
        artifacts keyed by the *current* fingerprints are touched —
        other seeds' entries survive.  Returns how many entries were
        actually removed.
        """
        if project is not None:
            if stage is not None:
                raise ValueError("pass either stage or project, not both")
            shard = next(
                (s for s in self.shards() if s.project == project), None
            )
            if shard is None:
                raise KeyError(project)
            keys = list(shard.keys.values()) + [
                self.fingerprint(name) for name in REDUCE_STAGE_NAMES
            ]
        else:
            if stage is None:
                targets = set(STAGE_NAMES)
            else:
                if stage not in STAGES:
                    raise KeyError(stage)
                targets = {stage} | dependents_of(stage)
            keys = []
            for name in STAGE_NAMES:
                if name not in targets:
                    continue
                if STAGES[name].kind == "map":
                    keys.extend(
                        shard.keys[name] for shard in self.shards()
                    )
                else:
                    keys.append(self.fingerprint(name))
        removed = sum(bool(self.store.delete(key)) for key in keys)
        self._resolved.clear()
        self._study = None
        return removed
