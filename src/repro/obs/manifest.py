"""The run manifest: one JSON document describing a whole pipeline run.

Written next to the study outputs (``--manifest FILE``), the manifest is
the auditable record replication work needs: the seed and corpus size,
the parallelism and artifact store, toolchain versions, per-stage
wall-clock timings, the final metrics snapshot and every warning the run
raised (aggregated by code).  It always round-trips through
``json.loads`` — enforced on a real traced run by
``tests/test_obs_study.py::TestManifest``.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import time
from pathlib import Path

from .events import aggregate_warnings

#: Version tag of the manifest document format.
MANIFEST_FORMAT = "repro-run-manifest-v1"


def runtime_environment() -> dict:
    """Host facts for apples-to-apples perf comparisons.

    Recorded in every manifest and run-registry record so
    ``repro bench-check`` can refuse cross-machine baselines with a
    clear warning instead of reporting phantom regressions.
    """
    return {
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
    }


def build_manifest(
    *,
    command: str,
    status: str = "ok",
    seed: int | None = None,
    jobs: int | None = None,
    dialect: str | None = None,
    study=None,
    corpus_size: int | None = None,
    warnings: list[dict] | None = None,
    outputs: dict | None = None,
    context=None,
) -> dict:
    """Assemble the manifest document for one run.

    ``dialect`` is recorded only for non-default workloads, as in the
    run-registry record, so canonical manifests keep their shape.
    ``study`` (a :class:`~repro.analysis.study.StudyResult`) contributes
    project counts, stage timings and the metrics snapshot when the run
    produced one; corpus-only runs pass ``corpus_size`` instead.
    ``context`` is the run's :class:`~repro.obs.context.RunContext`
    (default: the current one), whose metrics the manifest reports.
    Its artifact store gets a ``store`` block only if the run built
    one: a command that resolves no stage, such as ``generate``, has
    none, and describing its run creates no store directory.  The
    run's parse counts are in ``timings.parse_cache``.  The store's
    ``env`` entry echoes the environment as the user set it.
    """
    from .. import __version__
    from ..pipeline.store import STORE_DIR_ENV
    from .context import current

    context = context if context is not None else current()
    manifest: dict = {
        "format": MANIFEST_FORMAT,
        "command": command,
        "status": status,
        "created_at": round(time.time(), 3),
        "seed": seed,
        "jobs": jobs,
        "versions": {
            "repro": __version__,
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "environment": runtime_environment(),
    }
    store = context.built_store
    if store is not None:
        manifest["store"] = {
            "kind": store.kind,
            "dir": str(getattr(store, "root", None) or "") or None,
            "env": os.environ.get(STORE_DIR_ENV),
            "stats": store.stats.as_dict(),
        }
    if dialect is not None:
        manifest["dialect"] = dialect
    if study is not None:
        manifest["projects"] = len(study.projects)
        manifest["skipped"] = list(study.skipped)
        manifest["timings"] = study.timings.as_dict()
        manifest["metrics"] = study.metrics.as_dict()
        artifact_store = manifest["timings"].get("artifact_store")
        if store is not None and artifact_store and "map" in artifact_store:
            # surface the map/reduce split in the store block so an
            # auditor sees shard reuse without digging through timings
            manifest["store"]["shards"] = {
                "map": artifact_store["map"],
                "reduce": artifact_store["reduce"],
            }
    elif corpus_size is not None:
        manifest["projects"] = corpus_size
        manifest["metrics"] = context.metrics.snapshot().as_dict()
    warnings = warnings if warnings is not None else []
    manifest["warnings"] = aggregate_warnings(warnings)
    manifest["warning_count"] = len(warnings)
    if outputs:
        manifest["outputs"] = {
            key: str(value) for key, value in outputs.items() if value
        }
    return manifest


def write_manifest(manifest: dict, path: str | Path) -> Path:
    """Write a manifest document; the text always survives json.loads."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, default=str) + "\n")
    return path
