"""Per-stage wall-clock accounting for the study pipeline.

A :class:`StudyTimings` is attached to every
:class:`~repro.analysis.study.StudyResult`: the driver records the
mine / analyze split (summed across workers when running parallel),
``canonical_study`` adds the corpus-generation stage, and callers that
render figures can add a ``figures`` stage.  Cache counters ride along
so ``--profile`` output and ``BENCH_study.json`` expose the parse-cache
hit rate next to the stage breakdown.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from .cache import CacheStats

#: Canonical stage names, in pipeline order (used for stable rendering).
STAGE_ORDER = (
    "generate", "mine", "analyze", "aggregate", "figures", "statistics",
    "report", "total",
)

#: The *map* stages of the sharded pipeline: one artifact per project
#: shard, so their hit/recompute counts scale with the corpus.
MAP_STAGES = ("generate", "mine", "analyze")

#: The *reduce* stages: one whole-corpus artifact each, keyed over the
#: sorted shard digests of the map family they fold.
REDUCE_STAGES = ("aggregate", "figures", "statistics", "report")


@dataclass(frozen=True)
class ArtifactStats:
    """Hit / recompute counts of one stage against the artifact store."""

    hits: int = 0
    recomputes: int = 0

    def __add__(self, other: "ArtifactStats") -> "ArtifactStats":
        return ArtifactStats(
            hits=self.hits + other.hits,
            recomputes=self.recomputes + other.recomputes,
        )

    def as_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "recomputes": self.recomputes}


@dataclass
class StudyTimings:
    """Stage → seconds, plus parallelism and parse-cache counters.

    ``resources`` maps a scope name — a stage, ``"driver"`` for the
    whole run, ``"workers"`` for the pool processes — to its
    ``{"peak_rss_bytes", "cpu_seconds"}`` footprint, recorded by the
    :mod:`repro.obs.resources` sampler.  The ``driver`` and ``workers``
    scopes also carry the cyclic GC's cost while the study ran
    (``gc_full_collections``, ``gc_seconds``; see
    :class:`~repro.obs.resources.GcClock`).  Empty when telemetry is
    off or the platform exposes no RSS source; consumers must treat the
    block as optional.
    """

    stages: dict[str, float] = field(default_factory=dict)
    jobs: int = 1
    cache: CacheStats = field(default_factory=CacheStats)
    artifacts: dict[str, ArtifactStats] = field(default_factory=dict)
    resources: dict[str, dict] = field(default_factory=dict)
    #: Streaming-execution counters (backpressure window, spill stats,
    #: watchdog state) — optional like ``resources``; absent on
    #: records written before the streaming engine landed.
    streaming: dict[str, object] = field(default_factory=dict)

    def record(self, stage: str, seconds: float) -> None:
        """Accumulate ``seconds`` into ``stage``.

        Repeated records *sum*: the driver calls this once per worker
        result, so with ``jobs > 1`` a stage holds total worker seconds
        across processes (which can exceed the wall-clock ``total``).
        """
        self.stages[stage] = self.stages.get(stage, 0.0) + seconds

    def record_wall(self, seconds: float) -> None:
        """Set the run's wall-clock ``total`` (assignment, not a sum).

        ``record("total", ...)`` sums like any stage row, which let a
        caller that timed generation separately double-count the
        already-included wall total.  The whole-run clock has exactly
        one owner, so the owner *sets* it.
        """
        self.stages["total"] = seconds

    def record_resource(self, scope: str, sample) -> None:
        """Fold one resource sample into ``scope``.

        ``sample`` is a :class:`~repro.obs.resources.ResourceSample` or
        an equivalent ``{"peak_rss_bytes", "cpu_seconds"}`` dict,
        optionally with the GC counters of
        :meth:`~repro.obs.resources.GcClock.as_dict`.  Peaks fold by
        ``max`` (a scope's footprint is its high-water mark across
        however many windows fed it), CPU seconds and GC counters sum —
        mirroring the seconds semantics of :meth:`record`.  All-zero
        samples (no readable RSS source) are dropped so the telemetry
        block stays absent rather than asserting a zero-byte run.
        """
        if hasattr(sample, "as_dict"):
            sample = sample.as_dict()
        peak = int(sample.get("peak_rss_bytes") or 0)
        cpu = float(sample.get("cpu_seconds") or 0.0)
        if peak <= 0 and cpu <= 0.0:
            return
        current = self.resources.setdefault(
            scope, {"peak_rss_bytes": 0, "cpu_seconds": 0.0}
        )
        current["peak_rss_bytes"] = max(current["peak_rss_bytes"], peak)
        current["cpu_seconds"] = round(current["cpu_seconds"] + cpu, 6)
        if "gc_full_collections" in sample:
            current["gc_full_collections"] = current.get(
                "gc_full_collections", 0
            ) + int(sample["gc_full_collections"])
            current["gc_seconds"] = round(
                current.get("gc_seconds", 0.0)
                + float(sample.get("gc_seconds") or 0.0),
                6,
            )

    def record_streaming(self, key: str, value) -> None:
        """Record one streaming-execution counter block (assignment).

        ``key`` names the block (``"window"``, ``"aggregate_spill"``,
        ``"memory_watchdog"``); the owner sets it once at the end of the
        phase it describes, like :meth:`record_wall`.
        """
        self.streaming[key] = value

    def record_artifact(self, stage: str, *, hit: bool) -> None:
        """Count one store outcome (hit or recompute) for ``stage``."""
        current = self.artifacts.get(stage, ArtifactStats())
        self.artifacts[stage] = current + ArtifactStats(
            hits=int(hit), recomputes=int(not hit)
        )

    @property
    def artifact_totals(self) -> ArtifactStats:
        """Hits / recomputes summed over every stage."""
        total = ArtifactStats()
        for stats in self.artifacts.values():
            total = total + stats
        return total

    def merge_cache(self, stats: CacheStats) -> None:
        self.cache = self.cache + stats

    def eta_seconds(
        self,
        done: int,
        total: int,
        stages: tuple[str, ...] = ("mine", "analyze"),
        *,
        parallelism: int | None = None,
    ) -> float | None:
        """Estimated wall seconds left after ``done`` of ``total`` items.

        Uses the summed worker seconds recorded for ``stages`` so far
        (mean per completed item, divided by the *effective* parallelism
        to approximate wall clock under the fan-out).  ``parallelism``
        caps that divisor: a backpressured map runs at most its
        in-flight window wide, so with ``jobs=8`` but a window of 2 the
        honest divisor is 2, not 8 — without the cap a windowed run's
        ETA reads 4× too optimistic.  Returns ``None`` when the stages
        carry no seconds yet — callers fall back to wall-clock
        extrapolation — and ``0.0`` once nothing remains.
        """
        if done <= 0 or total <= done:
            return 0.0
        worked = sum(self.stages.get(stage, 0.0) for stage in stages)
        if worked <= 0.0:
            return None
        effective = max(1, self.jobs)
        if parallelism is not None:
            effective = max(1, min(effective, parallelism))
        return worked / done * (total - done) / effective

    @contextmanager
    def timed(self, stage: str):
        """Context manager recording the block's wall time into ``stage``."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.record(stage, time.perf_counter() - start)

    def ordered_stages(self) -> list[tuple[str, float]]:
        """(stage, seconds) pairs, pipeline stages first, extras after."""
        known = [
            (name, self.stages[name])
            for name in STAGE_ORDER
            if name in self.stages
        ]
        extras = sorted(
            (name, seconds)
            for name, seconds in self.stages.items()
            if name not in STAGE_ORDER
        )
        return known + extras

    def as_dict(self) -> dict[str, object]:
        """JSON-ready form (the timings block of a run-registry record).

        The ``artifact_store`` block appears only when the run actually
        resolved stages through the store, so records of runs that
        never touched it keep their historical payload shape.
        """
        payload: dict[str, object] = {
            "jobs": self.jobs,
            "stages": {
                name: round(seconds, 6)
                for name, seconds in self.ordered_stages()
            },
            "parse_cache": self.cache.as_dict(),
        }
        if self.artifacts:
            totals = self.artifact_totals
            lookups = totals.hits + totals.recomputes
            map_stats = ArtifactStats()
            reduce_stats = ArtifactStats()
            for name, stats in self.artifacts.items():
                if name in MAP_STAGES:
                    map_stats = map_stats + stats
                else:
                    reduce_stats = reduce_stats + stats
            payload["artifact_store"] = {
                "stages": {
                    name: self.artifacts[name].as_dict()
                    for name in sorted(self.artifacts)
                },
                "hits": totals.hits,
                "recomputes": totals.recomputes,
                "hit_rate": round(
                    totals.hits / lookups if lookups else 0.0, 4
                ),
                # the map/reduce split: map counts are per-shard (they
                # scale with the corpus), reduce counts are per-stage
                "map": map_stats.as_dict(),
                "reduce": reduce_stats.as_dict(),
            }
        if self.resources:
            # headline peak first (what bench-check's drift guard
            # reads), then the per-scope breakdown
            payload["resources"] = {
                "peak_rss_bytes": max(
                    entry["peak_rss_bytes"]
                    for entry in self.resources.values()
                ),
                "scopes": {
                    name: dict(self.resources[name])
                    for name in sorted(self.resources)
                },
            }
        if self.streaming:
            payload["streaming"] = {
                key: self.streaming[key] for key in sorted(self.streaming)
            }
        return payload

    def render(self) -> str:
        """Human-readable breakdown for ``repro-study study --profile``.

        With ``jobs > 1`` the mine/analyze rows are worker seconds summed
        across processes, so they can exceed the wall-clock ``total``.
        """
        suffix = ", stage rows are summed worker seconds" if self.jobs > 1 else ""
        lines = [f"Stage timings (jobs={self.jobs}{suffix}):"]
        for name, seconds in self.ordered_stages():
            lines.append(f"  {name:<10} {seconds:8.3f}s")
        cache = self.cache
        lines.append(
            f"  parse cache: {cache.hits} hits / {cache.misses} misses "
            f"({cache.hit_rate:.0%} hit rate)"
        )
        if cache.statement_lookups:
            # the incremental engine's own block: whole-version misses
            # above, per-statement reuse inside those misses here
            lines.append(
                f"  statements:  {cache.statement_hits} hits / "
                f"{cache.statement_misses} misses "
                f"({cache.statement_reuse_rate:.0%} parse-unit reuse, "
                f"{cache.fallback_parses} whole-file fallbacks)"
            )
        if self.artifacts:
            totals = self.artifact_totals
            warm = ", ".join(
                name for name in sorted(self.artifacts)
                if self.artifacts[name].hits
            ) or "none"
            lines.append(
                f"  artifact store: {totals.hits} hits / "
                f"{totals.recomputes} recomputes (warm: {warm})"
            )
        if self.resources:
            parts = ", ".join(
                f"{name} {self.resources[name]['peak_rss_bytes'] / 2**20:.0f} MiB"
                for name in sorted(self.resources)
            )
            lines.append(f"  peak RSS: {parts}")
            gc_parts = ", ".join(
                f"{name} {entry['gc_full_collections']} full / "
                f"{entry['gc_seconds']:.3f}s"
                for name, entry in sorted(self.resources.items())
                if "gc_full_collections" in entry
            )
            if gc_parts:
                lines.append(f"  cyclic GC: {gc_parts}")
        window = self.streaming.get("window")
        if window:
            lines.append(
                f"  streaming:   window {window.get('max_in_flight', 0)} "
                f"in flight, {window.get('submitted', 0)} submitted, "
                f"{window.get('shrinks', 0)} shrinks"
            )
        return "\n".join(lines)
