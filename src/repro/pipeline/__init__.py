"""Sharded stage-graph pipeline with a persistent artifact store.

The study is a map/reduce DAG of typed stages: the **map** stages
(``generate → mine → analyze``) produce one content-addressed artifact
*per project shard*, and the **reduce** stages (``aggregate →
figures/statistics → report``) fold the shard family into whole-corpus
artifacts.  Each key fingerprints its code version, the parameters it
consumes and its upstream keys (a project's identity, for shard keys;
the sorted shard digests, for the reduce chain), so a rerun replays
clean work from the store and recomputes exactly the dirty shards plus
the reduce tail.  See ``docs/architecture.md`` for the DAG, the
shard-key recipe and the on-disk layout.

Import layering: this package's leaves (:mod:`.store`,
:mod:`.fingerprint`) import nothing from the analysis layer, while the
graph modules (:mod:`.stages`, :mod:`.graph`) reach into it lazily at
compute time — so ``repro.analysis`` and ``repro.perf`` may import the
leaves at module level without a cycle, and the graph names below load
on first attribute access (PEP 562).
"""

from .fingerprint import (
    FINGERPRINT_FORMAT,
    canonical_params,
    digest_text,
    family_fingerprint,
    stage_fingerprint,
)
from .store import (
    ARTIFACT_FORMAT,
    STORE_DIR_ENV,
    Artifact,
    ArtifactStore,
    DirStore,
    MemoryStore,
    NullStore,
    StoreStats,
)

_LAZY = {
    "Pipeline": "graph",
    "CODE_VERSIONS": "stages",
    "MAP_STAGE_NAMES": "stages",
    "REDUCE_STAGE_NAMES": "stages",
    "STAGES": "stages",
    "STAGE_NAMES": "stages",
    "StageOutput": "stages",
    "StageSpec": "stages",
    "MinedProject": "stages",
    "analyze_one": "stages",
    "dependents_of": "stages",
    "stage_source_digest": "stages",
    "ShardSpec": "shards",
    "plan_shards": "shards",
    "shard_batches": "shards",
    "spec_digest": "shards",
    "profile_digest": "shards",
    "project_digest": "shards",
}

__all__ = [
    "ARTIFACT_FORMAT",
    "Artifact",
    "ArtifactStore",
    "CODE_VERSIONS",
    "DirStore",
    "FINGERPRINT_FORMAT",
    "MAP_STAGE_NAMES",
    "MemoryStore",
    "MinedProject",
    "NullStore",
    "Pipeline",
    "REDUCE_STAGE_NAMES",
    "STAGES",
    "STAGE_NAMES",
    "STORE_DIR_ENV",
    "ShardSpec",
    "StageOutput",
    "StageSpec",
    "StoreStats",
    "analyze_one",
    "canonical_params",
    "dependents_of",
    "digest_text",
    "family_fingerprint",
    "plan_shards",
    "profile_digest",
    "project_digest",
    "shard_batches",
    "spec_digest",
    "stage_fingerprint",
    "stage_source_digest",
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module}", __name__), name)
