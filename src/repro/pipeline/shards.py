"""Per-project shard planning for the map stages of the pipeline.

The sharded pipeline keys its map work (``generate``/``mine``/
``analyze``) **per project**: each project's shard carries one
content-addressed key per map stage, chained generate → mine → analyze
exactly like whole-corpus stage fingerprints chain across the DAG.  A
shard key's parameters are the project's *identity* — its name plus
digests of its sampled :class:`~repro.corpus.generator.ProjectSpec` and
its :class:`~repro.corpus.profiles.TaxonProfile` — so editing one
project's seed (or spec, or profile) re-keys exactly that project's
map cone and nothing else.

Planning is cheap by construction: :func:`plan_shards` consumes the
``(spec, profile)`` pairs of :func:`~repro.corpus.generator.corpus_specs`
— sampled from the corpus RNG without realising a single commit — so a
fully warm run never pays for generation at all.

A *materialised* corpus — projects that already exist in memory, read
back from a saved corpus or a real clone — plans through
:func:`plan_given_shard` instead: the identity is the project's name
plus a digest of the content mining reads (:func:`project_digest`), and
the shard's ``generate`` stage is the given project itself.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field

from ..corpus.generator import ProjectSpec
from ..corpus.profiles import TaxonProfile
from .fingerprint import canonical_params, digest_text, stage_fingerprint

#: The map stages, in chaining order (generate feeds mine feeds analyze).
SHARD_STAGES = ("generate", "mine", "analyze")


def spec_digest(spec: ProjectSpec) -> str:
    """A content digest of one project spec (identity, not payload).

    Folds every spec field through the canonical-params JSON (enums and
    ``Month`` stringify), so any sampled property — per-project seed,
    duration, vendor, start month — re-keys the project's shards.
    """
    return digest_text("project-spec", canonical_params(
        dataclasses.asdict(spec)
    ))


@functools.lru_cache(maxsize=64)
def profile_digest(profile: TaxonProfile) -> str:
    """A content digest of one taxon profile's generative parameters.

    Memoised on the profile's value: a corpus has a handful of frozen
    profiles and plans every shard against one of them, so each
    distinct profile is digested once instead of once per shard.
    """
    return digest_text("taxon-profile", canonical_params(
        dataclasses.asdict(profile)
    ))


@dataclass(frozen=True)
class ShardSpec:
    """One project's shard: identity plus its per-stage artifact keys.

    ``keys`` maps each map stage to the shard's content-addressed store
    key.  The keys chain: ``mine`` folds the ``generate`` key as its
    upstream, ``analyze`` folds ``mine``, so a changed spec re-keys all
    three while every other shard stays warm.
    """

    index: int
    project: str
    keys: dict = field(compare=False)
    #: The identity params the ``generate`` key folds (project name +
    #: spec/profile digests, or the content digest of a given project)
    #: — kept on the shard so provenance records can name *which*
    #: digest moved when a shard re-keys.
    identity: dict = field(compare=False, default_factory=dict)
    spec: ProjectSpec | None = field(compare=False, default=None)
    profile: TaxonProfile | None = field(compare=False, default=None)
    #: The materialised project when the corpus supplies it: its
    #: ``generate`` stage is given, never computed or stored.
    given: object = field(compare=False, default=None)

    def upstream(self, stage: str) -> dict[str, str]:
        """The stage's upstream keys within this shard's map cone."""
        i = SHARD_STAGES.index(stage)
        if i == 0:
            return {}
        previous = SHARD_STAGES[i - 1]
        return {previous: self.keys[previous]}


def _keyed_shard(
    index: int, identity: dict, code_versions: dict[str, str], **fields
) -> ShardSpec:
    """The shard whose three map keys chain from ``identity``."""
    generate_key = stage_fingerprint(
        "generate", code_versions["generate"], identity, {}
    )
    mine_key = stage_fingerprint(
        "mine", code_versions["mine"], {}, {"generate": generate_key}
    )
    analyze_key = stage_fingerprint(
        "analyze", code_versions["analyze"], {}, {"mine": mine_key}
    )
    return ShardSpec(
        index=index,
        project=identity["project"],
        keys={
            "generate": generate_key,
            "mine": mine_key,
            "analyze": analyze_key,
        },
        identity=identity,
        **fields,
    )


def plan_shard(
    index: int,
    spec: ProjectSpec,
    profile: TaxonProfile,
    code_versions: dict[str, str],
    dialect: str | None = None,
) -> ShardSpec:
    """Plan one project's :class:`ShardSpec` (the per-shard unit).

    Each shard is planned from its own identity alone, so planning
    streams: the pipeline can plan, execute and release one shard at a
    time without ever holding the whole plan.

    ``dialect`` is the workload's shard-identity component: non-default
    workloads fold it into the ``generate`` key's params (so ``pipeline
    explain`` attributes a workload switch to ``params.dialect``), on
    top of the vendor already folded through ``spec_digest``.  The
    default workload passes ``None`` and the identity — and with it
    every canonical store key — is byte-identical to the pre-workload
    layout.
    """
    identity = {
        "project": spec.name,
        "spec": spec_digest(spec),
        "profile": profile_digest(profile),
    }
    if dialect is not None:
        identity["dialect"] = dialect
    return _keyed_shard(
        index, identity, code_versions, spec=spec, profile=profile
    )


def project_digest(project) -> str:
    """A content digest of one materialised project: what mining reads.

    Folds the repository's commits (sha, author, date, message, every
    file change), the recorded versions of every tracked file and the
    ground-truth taxon, so any edit to a saved corpus or a re-cloned
    history re-keys exactly that project's shards.
    """
    repo = project.repository
    taxon = project.true_taxon
    parts = [repo.name, taxon.value if taxon is not None else ""]
    for commit in repo.commits:
        parts += (
            commit.sha, commit.author, commit.email,
            commit.date.isoformat(), commit.message,
            str(len(commit.changes)),
        )
        for change in commit.changes:
            parts += (change.status, change.path, change.old_path or "")
    for path in sorted(repo.file_contents):
        versions = repo.file_contents[path]
        parts += (path, str(len(versions)))
        for version in versions:
            parts += (
                version.sha, version.date.isoformat(), version.content,
            )
    # one joined update: hashing field by field costs more than mining
    # a small project
    return digest_text("project-content", "\x00".join(parts))


def plan_given_shard(
    index: int,
    project,
    code_versions: dict[str, str],
    dialect: str | None = None,
) -> ShardSpec:
    """Plan the shard of a materialised project (a saved or real one).

    The identity is the project's name plus its :func:`project_digest`,
    so a warm store replays an unchanged project whatever corpus it
    arrives in; ``dialect`` folds in exactly as for a sampled shard.
    """
    identity = {"project": project.name, "content": project_digest(project)}
    if dialect is not None:
        identity["dialect"] = dialect
    return _keyed_shard(index, identity, code_versions, given=project)


def iter_shards(pairs, code_versions: dict[str, str], dialect: str | None = None):
    """Stream one :class:`ShardSpec` per ``(spec, profile)`` pair.

    ``pairs`` may be any iterable — in the streaming pipeline it is the
    :func:`~repro.corpus.generator.iter_corpus_specs` generator, so a
    100k-project plan is never held whole.  Shards keep corpus order
    (the reduce stages fold rows in corpus order, so every fan-out
    width renders the same bytes); the *family* fingerprint over shard
    keys sorts internally, so ordering here is presentation, not
    addressing.
    """
    for index, (spec, profile) in enumerate(pairs):
        yield plan_shard(index, spec, profile, code_versions, dialect)


def plan_shards(
    pairs: list[tuple[ProjectSpec, TaxonProfile]],
    code_versions: dict[str, str],
    dialect: str | None = None,
) -> list[ShardSpec]:
    """Plan one :class:`ShardSpec` per ``(spec, profile)`` pair.

    The list form of :func:`iter_shards`, for callers that hold the
    whole plan anyway (status tables, invalidation, tests).
    """
    return list(iter_shards(pairs, code_versions, dialect))
