"""The typed stages of the study dataflow graph.

The study is a sharded map/reduce pipeline::

    per project shard (×N)                 whole corpus
    ┌───────────────────────────┐   ┌──────────────────────────┐
    generate ──► mine ──► analyze ──► aggregate ─┬─► figures ──┐
                                                 ├─► statistics┤
                                                 └─────────────┴─► report

The **map** stages (``generate``/``mine``/``analyze``) produce one
content-addressed artifact *per project shard* — their keys are planned
by :mod:`repro.pipeline.shards` from the project's identity, so editing
one project re-keys exactly its own map cone.  The **reduce** stages
each produce one whole-corpus artifact whose fingerprint chains over
the sorted shard digests of the map family (via
:func:`~repro.pipeline.fingerprint.family_fingerprint`), so any shard
change also re-keys the reduce tail while the untouched shards stay
warm.

Each :class:`StageSpec` declares its dependencies, the pipeline
parameters it actually consumes (only those participate in its
fingerprint — the seed dirties the shard plan and everything downstream,
the report format dirties only ``report``) and a hand-bumped **code
version**: bump the constant when a stage's computation changes and
every stored artifact of that stage, plus everything downstream of it,
is invalidated while upstream artifacts stay warm.  Next to the
hand-bumped version, every stored artifact also records the *source
digest* of the stage's implementing module
(:func:`stage_source_digest`), so ``pipeline status`` can warn when the
code changed but the version constant was forgotten.

``jobs`` is deliberately *not* a fingerprint parameter: every stage is
jobs-invariant by construction (proven by the serial/parallel
equivalence tests), so a ``--jobs 4`` run may reuse artifacts a serial
run stored and vice versa.

Reduce compute functions receive the owning
:class:`~repro.pipeline.graph.Pipeline` (for parameters, timings and
the fan-out width) plus the payloads of their resolved dependencies,
and return a :class:`StageOutput` carrying the payload and an explicit
metrics delta — explicit because worker-process counters never reach
the driver registry.  Map stages carry no corpus-level compute: the
graph finishes each cold shard through
:func:`~repro.perf.parallel.map_shard`, which ends in
:func:`analyze_one`.  Every artifact, map or reduce, is stored with the
meta :func:`artifact_meta` builds, wherever it was computed.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

from ..heartbeat import ZeroTotalError
from ..obs.context import current
from ..obs.events import warn
from ..obs.metrics import MetricsSnapshot
from ..obs.provenance import PROVENANCE_FORMAT
from .codec import STAGE_CODECS
from .fingerprint import digest_text

# Per-stage code versions.  Bump a constant when the stage's computation
# changes in a way that affects its artifact bytes; the fingerprint
# chain invalidates the stage and its dependents, nothing else.  The map
# stages jumped to "2" with the shard refactor: their artifacts changed
# from whole-corpus containers to per-project payloads; ``mine`` jumped
# to "3" when its shards moved to the tuple codec and the incremental
# parse engine landed; ``generate`` went to "3" when its shards became
# text only (the repository is parsed from the git-log text on read);
# ``mine`` went to "4" when the fragment engine and ``parse_schema``
# began to agree on ``$`` inside words and on parse-issue lines;
# ``statistics`` went to "2" when Shapiro–Wilk and the χ² tail moved
# from scipy to ``repro.stats``, whose floats differ from scipy's (a
# Shapiro–Wilk p from about its seventh digit).
GENERATE_VERSION = "3"
MINE_VERSION = "4"
ANALYZE_VERSION = "2"
AGGREGATE_VERSION = "1"
FIGURES_VERSION = "1"
STATISTICS_VERSION = "2"
REPORT_VERSION = "1"


@dataclass
class StageOutput:
    """What a stage compute hands back to the graph runner."""

    payload: object
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)


@dataclass(frozen=True)
class StageSpec:
    """One node of the stage graph: identity, wiring and compute.

    ``kind`` is ``"map"`` (one artifact per project shard, resolved by
    the graph's map phase; ``compute`` is ``None``) or ``"reduce"``
    (one whole-corpus artifact from ``compute``).
    """

    name: str
    deps: tuple[str, ...]
    params: tuple[str, ...]
    code_version: str
    compute: Callable | None
    kind: str = "reduce"


@dataclass
class MinedProject:
    """One ``mine`` shard's artifact: history plus ground truth.

    Seconds, cache deltas and span trees are run observability, not
    artifact content, so they live in the artifact *meta* (or on the
    :class:`~repro.perf.parallel.ShardResult` of the unit that mined
    it), never in the payload.
    """

    name: str
    history: object
    true_taxon: object


# ----------------------------------------------------------------------
# the per-shard analyze step

def analyze_one(mined: MinedProject) -> dict:
    """``analyze`` one shard: ``{"project", "row"}``, skips in-band.

    The last step of :func:`~repro.perf.parallel.map_shard`, in the
    process that mined the shard (or received its warm history); the
    empty-history skip decision — and its ``empty-history`` warning —
    lives here.  A skipped project stores ``row=None`` so a warm shard
    replays the skip without recomputing.
    """
    from ..analysis.measures import analyze_project

    try:
        row = analyze_project(mined.history, true_taxon=mined.true_taxon)
    except ZeroTotalError:
        row = None
        current().metrics.inc("projects.skipped")
        warn(
            "empty-history",
            f"{mined.name}: zero total activity on one side; "
            "project skipped",
            project=mined.name,
        )
    return {"project": mined.name, "row": row}


# ----------------------------------------------------------------------
# reduce stage computes

def compute_aggregate(pipe, inputs: dict) -> StageOutput:
    """``aggregate``: fold the analyze shards into the corpus tables.

    The first reduce barrier: consumes the per-shard ``analyze``
    payloads *in corpus order* — ``inputs["analyze"]`` may be the
    streaming map generator, each payload released after its fold — and
    folds them through an
    :class:`~repro.mining.aggregates.AggregateAccumulator` into the same
    ``{"rows", "skipped"}`` shape whatever the fan-out width or store
    state, so every downstream stage — and the rendered report — is
    byte-identical to a whole-corpus serial run.  Under
    ``--limit-memory`` the pipeline hands the accumulator a spill
    directory, bounding even the accumulated rows; the spilled fold is
    byte-identical too.
    """
    from ..mining.aggregates import AggregateAccumulator

    acc = AggregateAccumulator(
        spill_dir=getattr(pipe, "spill_dir", None),
    )
    for entry in inputs["analyze"]:
        acc.update(entry)
    spill = acc.stats()
    timings = getattr(pipe, "timings", None)
    if spill["spilled_batches"] and timings is not None:
        timings.record_streaming("aggregate_spill", spill)
    return StageOutput(payload=acc.finalize())


def compute_figures(pipe, inputs: dict) -> StageOutput:
    """``figures``: every default-parameter figure plus the headline."""
    from ..analysis.figures import (
        fig4_sync_histogram,
        fig5_duration_scatter,
        fig6_advance_table,
        fig7_always_advance,
        fig8_attainment,
        headline_numbers,
    )

    rows = inputs["aggregate"]["rows"]
    figures = {
        "fig4": fig4_sync_histogram(rows),
        "fig5": fig5_duration_scatter(rows),
        "fig6": fig6_advance_table(rows),
        "fig7": fig7_always_advance(rows),
        "fig8": fig8_attainment(rows),
    }
    figures["headline"] = headline_numbers(
        rows,
        fig4=figures["fig4"],
        fig7=figures["fig7"],
        fig8=figures["fig8"],
    )
    return StageOutput(payload=figures)


def compute_statistics(pipe, inputs: dict) -> StageOutput:
    """``statistics``: the §7 battery, or its error in storable form.

    Tiny corpora legitimately fail the battery (Shapiro-Wilk needs at
    least 3 observations); the artifact stores the outcome either way so
    a warm run replays the same ``ValueError`` without recomputing.
    """
    from ..analysis.statistics import sec7_statistics

    try:
        payload = {"ok": True, "report": sec7_statistics(
            inputs["aggregate"]["rows"]
        )}
    except ValueError as exc:
        payload = {"ok": False, "error": str(exc)}
    return StageOutput(payload=payload)


def compute_report(pipe, inputs: dict) -> StageOutput:
    """``report``: the rendered document (``pipe.report_format``)."""
    from ..analysis.study import StudyResult
    from ..report import build_html_report, build_study_report

    study = StudyResult(
        projects=list(inputs["aggregate"]["rows"]),
        skipped=list(inputs["aggregate"]["skipped"]),
    )
    study.prime_artifacts(
        figures=inputs["figures"], statistics=inputs["statistics"]
    )
    if pipe.report_format == "html":
        text = build_html_report(study)
    else:
        text = build_study_report(study)
    return StageOutput(payload=text)


# ----------------------------------------------------------------------
# the graph

STAGES: dict[str, StageSpec] = {
    spec.name: spec
    for spec in (
        StageSpec(
            "generate", (), ("seed", "scale"),
            GENERATE_VERSION, None, kind="map",
        ),
        StageSpec(
            "mine", ("generate",), (), MINE_VERSION, None, kind="map",
        ),
        StageSpec(
            "analyze", ("mine",), (), ANALYZE_VERSION, None, kind="map",
        ),
        StageSpec(
            "aggregate", ("analyze",), (),
            AGGREGATE_VERSION, compute_aggregate,
        ),
        StageSpec(
            "figures", ("aggregate",), (),
            FIGURES_VERSION, compute_figures,
        ),
        StageSpec(
            "statistics", ("aggregate",), (),
            STATISTICS_VERSION, compute_statistics,
        ),
        StageSpec(
            "report", ("aggregate", "figures", "statistics"),
            ("report_format",), REPORT_VERSION, compute_report,
        ),
    )
}

#: Stage names in declaration (topological) order.
STAGE_NAMES: tuple[str, ...] = tuple(STAGES)

#: The map stages, in chaining order (one artifact per project shard).
MAP_STAGE_NAMES: tuple[str, ...] = tuple(
    name for name, spec in STAGES.items() if spec.kind == "map"
)

#: The reduce stages, in topological order (one artifact per stage).
REDUCE_STAGE_NAMES: tuple[str, ...] = tuple(
    name for name, spec in STAGES.items() if spec.kind == "reduce"
)

#: The default code-version per stage (overridable per Pipeline).
CODE_VERSIONS: dict[str, str] = {
    name: spec.code_version for name, spec in STAGES.items()
}

#: Which module's source *is* each stage's computation, for the
#: stage-version drift guard.  ``generate`` lives in the corpus
#: generator, ``mine`` in the miner (``mine_project``), not in the
#: fan-out plumbing that ships it to a worker; everything else is the
#: compute in this module.
_SOURCE_MODULES: dict[str, str] = {
    "generate": "repro.corpus.generator",
    "mine": "repro.mining.miner",
    "analyze": "repro.pipeline.stages",
    "aggregate": "repro.pipeline.stages",
    "figures": "repro.pipeline.stages",
    "statistics": "repro.pipeline.stages",
    "report": "repro.pipeline.stages",
}


@lru_cache(maxsize=None)
def stage_source_digest(stage: str) -> str:
    """A digest of the source module implementing ``stage``.

    Stored in every artifact's meta next to the hand-bumped
    ``code_version``; ``Pipeline.version_drift`` compares the stored
    digest against the current one to catch the classic staleness bug —
    the stage's code changed but its version constant did not, so warm
    artifacts silently replay the old computation.  Deliberately
    coarse (whole module, not one function): a helper edit inside the
    module *may* change the stage's bytes, and a false "please check"
    is cheaper than a silent stale artifact.
    """
    module = importlib.import_module(_SOURCE_MODULES[stage])
    return digest_text("stage-source", stage, inspect.getsource(module))


def artifact_meta(
    stage: str,
    code_version: str,
    *,
    shard=None,
    params: dict | None = None,
    upstream: dict[str, str] | None = None,
    dialect: str | None = None,
    source: str | None = None,
    seconds: float = 0.0,
    warnings=(),
    metrics: MetricsSnapshot | None = None,
) -> dict:
    """The envelope meta of one ``stage`` artifact, provenance included.

    A map artifact names its ``shard``
    (:class:`~repro.pipeline.shards.ShardSpec`), whose identity (for
    ``generate``) and upstream key its provenance records; a reduce
    artifact passes the ``params`` and ``upstream`` fingerprints its
    key folds.  ``seconds``, ``warnings`` and ``metrics`` are what
    computing it took and recorded; ``pipeline explain`` builds the
    meta without them and compares only its ``provenance``.
    Non-default workloads stamp their ``dialect`` and ``source``; a
    stage with a codec names it.
    """
    provenance = {
        "format": PROVENANCE_FORMAT,
        "stage": stage,
        "kind": STAGES[stage].kind,
    }
    meta = {"stage": stage}
    if shard is None:
        meta["params"] = params
    else:
        # a generate key folds the shard's identity; the downstream
        # cone inherits it through the upstream chain
        params = shard.identity if stage == "generate" else {}
        upstream = shard.upstream(stage)
        provenance["project"] = meta["project"] = shard.project
    source_digest = stage_source_digest(stage)
    provenance.update(
        code_version=code_version,
        # interned names: a shard unpickled in a pool worker then
        # shares them with this meta's own keys, as in the planner, so
        # the envelope pickles to the same bytes in either process
        params={sys.intern(name): value for name, value in params.items()},
        upstream=dict(upstream),
        source_digest=source_digest,
    )
    meta.update(
        code_version=code_version,
        source_digest=source_digest,
        provenance=provenance,
        seconds=round(seconds, 6),
        warnings=list(warnings),
        metrics=metrics,
    )
    if dialect is not None:
        # canonical meta stays byte-compatible with old stores
        meta["dialect"] = dialect
        meta["source"] = source
    codec = STAGE_CODECS.get(stage)
    if codec is not None:
        meta["codec"] = codec
    return meta


def dependents_of(stage: str) -> set[str]:
    """Every stage downstream of ``stage`` (transitive, exclusive)."""
    downstream: set[str] = set()
    frontier = {stage}
    while frontier:
        current = frontier.pop()
        for name, spec in STAGES.items():
            if current in spec.deps and name not in downstream:
                downstream.add(name)
                frontier.add(name)
    return downstream
