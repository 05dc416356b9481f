"""The study entry points: corpus → measures → every figure and finding.

Every study runs through one engine, the sharded stage-graph
:class:`~repro.pipeline.graph.Pipeline`: it mines each repository,
computes the per-project measures and resolves the figure computations
plus the headline numbers quoted in §4–§6 of the paper.  The two
functions here are thin conveniences over it:

* :func:`run_study` — an in-memory corpus (generated, scenario, loaded
  from disk or cloned), run against a store that keeps nothing;
* :func:`canonical_study` — the seed-sampled canonical corpus, memoised
  and resolved against the current run context's store.

``jobs=N`` fans the mine work out over a process pool; ``jobs=1`` (the
default) keeps it in-process, and the two are result-identical
(deterministic per-project work, order-preserving collection — proven
by the equivalence tests).  Every result carries a
:class:`~repro.perf.timing.StudyTimings` with the per-stage wall-clock
breakdown and parse-cache hit rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

from ..corpus import DEFAULT_SEED
from ..obs.metrics import MetricsSnapshot
from ..perf.timing import StudyTimings
from ..taxa import Taxon
from .figures import (
    AdvanceTable,
    AlwaysAdvance,
    AttainmentBreakdown,
    SyncHistogram,
    fig4_sync_histogram,
    fig5_duration_scatter,
    fig6_advance_table,
    fig7_always_advance,
    fig8_attainment,
    headline_numbers,
)
from .measures import ProjectMeasures
from .statistics import StatisticsReport, sec7_statistics


@dataclass
class StudyResult:
    """All per-project rows plus lazy access to figures and statistics.

    ``timings``, ``metrics`` and ``warnings`` are observability
    side-channels — they never participate in equality, so a traced run
    compares equal to (and measures byte-identically with) an untraced
    one.
    """

    projects: list[ProjectMeasures]
    skipped: list[str]
    timings: StudyTimings = field(default_factory=StudyTimings, compare=False)
    metrics: MetricsSnapshot = field(
        default_factory=MetricsSnapshot, compare=False
    )
    warnings: list[dict] = field(default_factory=list, compare=False)
    # figure / statistics memo — seeded from store artifacts when the
    # result came through the pipeline, filled on first access otherwise
    _memo: dict = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __len__(self) -> int:
        return len(self.projects)

    def _memoised(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def prime_artifacts(
        self,
        *,
        figures: dict | None = None,
        statistics: dict | None = None,
    ) -> "StudyResult":
        """Seed the memo from pipeline artifacts (figures / statistics).

        After priming, the default-parameter accessors return the stored
        objects instead of recomputing — a warm study replays its
        figures from the store.
        """
        if figures:
            for name, key in (
                ("fig4", ("fig4", 0.10)),
                ("fig5", ("fig5", 0.10)),
                ("fig6", ("fig6",)),
                ("fig7", ("fig7",)),
                ("fig8", ("fig8", ())),
                ("headline", ("headline",)),
            ):
                if name in figures:
                    self._memo[key] = figures[name]
        if statistics is not None:
            self._memo[("statistics",)] = statistics
        return self

    # figures -----------------------------------------------------------
    def fig4(self, *, theta: float = 0.10) -> SyncHistogram:
        return self._memoised(
            ("fig4", theta),
            lambda: fig4_sync_histogram(self.projects, theta=theta),
        )

    def fig5(self, *, theta: float = 0.10):
        return self._memoised(
            ("fig5", theta),
            lambda: fig5_duration_scatter(self.projects, theta=theta),
        )

    def fig6(self) -> AdvanceTable:
        return self._memoised(
            ("fig6",), lambda: fig6_advance_table(self.projects)
        )

    def fig7(self) -> AlwaysAdvance:
        return self._memoised(
            ("fig7",), lambda: fig7_always_advance(self.projects)
        )

    def fig8(self, **kwargs) -> AttainmentBreakdown:
        return self._memoised(
            ("fig8", tuple(sorted(kwargs.items()))),
            lambda: fig8_attainment(self.projects, **kwargs),
        )

    def statistics(self) -> StatisticsReport:
        """The §7 battery; its failure replays like its success.

        The outcome memoises in artifact form (``ok``/``report`` or
        ``ok``/``error``) so a pipeline-stored statistics artifact and a
        lazily computed one behave identically — including re-raising
        the original ``ValueError`` for corpora too small to test.
        """
        outcome = self._memo.get(("statistics",))
        if outcome is None:
            try:
                outcome = {"ok": True, "report": sec7_statistics(self.projects)}
            except ValueError as exc:
                outcome = {"ok": False, "error": str(exc)}
            self._memo[("statistics",)] = outcome
        if not outcome["ok"]:
            raise ValueError(outcome["error"])
        return outcome["report"]

    # headline numbers ---------------------------------------------------
    def headline(self) -> dict[str, float]:
        """The headline findings quoted in the abstract and §4–§6.

        Memoised: repeated calls return the same dict object (derived
        from the memoised figures, so a primed result never recomputes).
        """
        return self._memoised(
            ("headline",),
            lambda: headline_numbers(
                self.projects,
                fig4=self.fig4(),
                fig7=self.fig7(),
                fig8=self.fig8(),
            ),
        )

    def by_taxon(self, taxon: Taxon) -> list[ProjectMeasures]:
        return [p for p in self.projects if p.taxon is taxon]


def run_study(corpus: Iterable, *, jobs: int = 1) -> StudyResult:
    """Mine and measure every project of a materialised corpus.

    Args:
        corpus: the projects to study — anything with ``name``,
            ``repository`` and ``true_taxon`` (generated, loaded from a
            saved corpus, or a real clone); materialised once.
        jobs: worker processes for the mine fan-out.  ``1`` (the
            default) mines in-process; ``N > 1`` distributes shards over
            the warm process pool while preserving corpus order,
            producing identical results.

    The corpus runs as a :class:`~repro.pipeline.graph.Pipeline` over
    a :class:`~repro.pipeline.store.NullStore`: nothing carries over
    between calls, and each mined history is released once analysed.
    The §7 statistics are computed on first read, not up front.
    """
    from ..pipeline import NullStore, Pipeline

    return Pipeline(corpus=corpus, jobs=jobs, store=NullStore()).study()


@lru_cache(maxsize=4)
def canonical_study(seed: int = DEFAULT_SEED, *, jobs: int = 1) -> StudyResult:
    """The study over the canonical 195-project corpus (memoised).

    Resolved through the stage-graph pipeline against the current run
    context's artifact store (``REPRO_STORE_DIR`` outside any run), so
    repeated calls — and CLI runs sharing a store directory — replay
    clean stages instead of recomputing.  ``jobs`` parallelises both
    corpus generation and mining; the result is identical for every
    ``jobs`` value (each memoised separately).
    ``timings.stages["total"]`` is the run's wall clock, set once by the
    pipeline — generation is *included* in it, not added on top.
    """
    from ..pipeline import Pipeline

    return Pipeline(seed=seed, jobs=jobs).study()
