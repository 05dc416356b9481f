"""The run-registry record: the one perf record format, and its log.

Every ``repro study`` / ``repro report`` run against a directory store
appends one compact JSONL record to ``<store>/runs/history.jsonl``:
stage timings, cache and store hit rates, resource peaks, warning
count, environment, and the run's manifest digest.  The registry turns
the store from a pile of artifacts into a *trajectory* — ``repro obs
history`` tables it, ``repro obs timeline --stage mine`` plots a
cross-run trend with regression markers, and ``bench-check
--against-history N`` compares a candidate to the median of the last
``N`` comparable records instead of one hand-kept BENCH file.

The committed ``BENCH_*.json`` files are records of this same format,
built by the same :func:`build_run_record`; :func:`as_record` is the
one reader that ``bench-check`` and ``obs history --import`` use, and
it also turns a run manifest into the record of its run.  The log
reader is tolerant: malformed lines are skipped, never fatal — an
append-only log must survive a torn write.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from statistics import median

from .manifest import MANIFEST_FORMAT, runtime_environment

#: Format tag carried by every registry record.
REGISTRY_FORMAT = "repro-run-registry-v1"

#: Registry location relative to the artifact-store root.
REGISTRY_RELPATH = Path("runs") / "history.jsonl"


def manifest_digest(manifest: dict) -> str:
    """A stable content digest of one manifest document."""
    text = json.dumps(
        manifest, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(text.encode()).hexdigest()


class RunRegistry:
    """One store's run history: append records, read them back."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    @property
    def path(self) -> Path:
        return self.root / REGISTRY_RELPATH

    def append(self, record: dict) -> dict:
        """Append one record (one line); creates the registry lazily."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, sort_keys=True, default=str)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        return record

    def records(self, limit: int | None = None) -> list[dict]:
        """All records in append order (last ``limit`` when given).

        Torn or foreign lines are skipped — the registry outlives any
        single writer and must never make history unreadable.
        """
        if not self.path.exists():
            return []
        out: list[dict] = []
        for line in self.path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and "stages" in record:
                out.append(record)
        return out[-limit:] if limit else out

    def __len__(self) -> int:
        return len(self.records())


def registry_for_store(store) -> RunRegistry | None:
    """The store's registry, or ``None`` for in-memory stores.

    Only a directory store has a place for history; a ``MemoryStore``
    run leaves no registry record (matching its artifacts, which also
    die with the process).
    """
    root = getattr(store, "root", None)
    return RunRegistry(root) if root else None


def build_run_record(
    timings: dict,
    *,
    command: str,
    projects: int | None,
    skipped: int | None = None,
    warning_count: int | None = None,
    seed: int | None = None,
    scale: int | None = None,
    jobs: int | None = None,
    dialect: str | None = None,
    manifest: dict | None = None,
    fingerprints: dict | None = None,
) -> dict:
    """One registry record from a ``StudyTimings.as_dict()`` block.

    With a ``manifest`` the record describes that manifest's run: it
    carries the manifest's digest and host environment.  Without one it
    describes a run of this process, on this host.  ``dialect`` is
    recorded only for non-default workloads, so canonical records — and
    every record written before workloads existed — are shape-identical;
    readers fall back with ``record.get("dialect")``.
    """
    recorded_at = round(time.time(), 3)
    digest = manifest_digest(manifest) if manifest else None
    run_id = hashlib.sha256(
        f"{recorded_at}:{command}:{digest}".encode()
    ).hexdigest()[:12]
    record: dict = {
        "format": REGISTRY_FORMAT,
        "run_id": run_id,
        "recorded_at": recorded_at,
        "command": command,
        "seed": seed,
        "scale": scale,
        "jobs": jobs if jobs is not None else timings.get("jobs"),
        "projects": projects,
        "skipped": skipped,
        "manifest_digest": digest,
        "stages": timings.get("stages") or {},
        "parse_cache": timings.get("parse_cache"),
        "warning_count": warning_count,
        "environment": (
            manifest.get("environment")
            if manifest is not None
            else runtime_environment()
        ),
    }
    if dialect is not None:
        record["dialect"] = dialect
    for block in ("artifact_store", "resources", "streaming"):
        if timings.get(block):
            record[block] = timings[block]
    if fingerprints:
        record["fingerprints"] = dict(fingerprints)
    return record


def as_record(doc: dict, source: str) -> dict:
    """The registry record a perf document stands for.

    A registry record (every ``BENCH_*.json`` file, every registry line)
    comes back as is; a run manifest becomes the record of its run,
    carrying the manifest's digest.  Anything else raises
    ``ValueError`` naming ``source``.
    """
    kind = doc.get("format")
    if kind == REGISTRY_FORMAT:
        return doc
    if kind == MANIFEST_FORMAT:
        timings = doc.get("timings")
        if not isinstance(timings, dict):
            raise ValueError(
                f"{source}: run manifest without a timings block "
                "(not a study run)"
            )
        skipped = doc.get("skipped")
        return build_run_record(
            timings,
            command=doc.get("command"),
            projects=doc.get("projects"),
            skipped=len(skipped) if skipped is not None else None,
            warning_count=doc.get("warning_count"),
            seed=doc.get("seed"),
            jobs=doc.get("jobs"),
            dialect=doc.get("dialect"),
            manifest=doc,
        )
    raise ValueError(
        f"{source}: neither a run-registry record ({REGISTRY_FORMAT}) "
        f"nor a run manifest ({MANIFEST_FORMAT})"
    )


def timeline_values(
    records: list[dict], stage: str
) -> tuple[list, str]:
    """One stage's value per record (``None`` where absent), plus unit.

    ``stage`` names a stage-seconds series from the ``stages`` block;
    the special name ``rss`` plots the peak-RSS trend in MiB instead.
    """
    if stage == "rss":
        series = [
            (record.get("resources") or {}).get("peak_rss_bytes")
            for record in records
        ]
        return [v / 2**20 if v else None for v in series], "MiB"
    return [
        (record.get("stages") or {}).get(stage) for record in records
    ], "s"


def render_timeline(
    records: list[dict], stage: str = "total", *, width: int = 32
) -> str:
    """Render one stage's cross-run trend as text bars.

    Degenerate histories render rather than crash: a single record
    plots one bar with no regression marker, an all-equal series plots
    full-width bars, and an all-zero series pins the bar scale to 1 so
    the bar arithmetic never divides by zero.  Raises ``ValueError``
    when the registry is empty or no record carries ``stage`` — the
    callers' error paths, never a partial plot.
    """
    if not records:
        raise ValueError("run registry is empty — nothing to plot")
    values, unit = timeline_values(records, stage)
    if not any(v is not None for v in values):
        raise ValueError(
            f"no record carries {stage!r} "
            "(see obs history --json for the available stages)"
        )
    peak = max(v for v in values if v is not None) or 1.0
    lines = [
        f"timeline: {stage} over {len(records)} run(s) "
        f"(bar = {peak:.2f} {unit}; ! marks a >25% jump)"
    ]
    previous = None
    for record, value in zip(records, values):
        when = time.strftime(
            "%m-%d %H:%M",
            time.localtime(record.get("recorded_at") or 0),
        )
        run_id = str(record.get("run_id", "?"))[:13]
        if value is None:
            lines.append(f"  {run_id:<13} {when:<12} {'-':>10}")
            continue
        bar = "#" * max(1, round(value / peak * width))
        marker = ""
        if previous is not None and previous > 0:
            if (value - previous) / previous > 0.25:
                marker = "  ! regression"
        lines.append(
            f"  {run_id:<13} {when:<12} {value:>9.2f}{unit} "
            f"{bar}{marker}"
        )
        previous = value
    return "\n".join(lines)


def _median_merge(values: list):
    """Element-wise median over parallel JSON fragments.

    Dicts merge recursively over the union of keys (each key's median
    is taken over the records that carry it), numbers take the median,
    anything else takes the latest value — good enough for the
    identity-ish fields (environment, format tags) a median cannot
    average.
    """
    present = [v for v in values if v is not None]
    if not present:
        return None
    if all(isinstance(v, dict) for v in present):
        keys: list = []
        for fragment in present:
            for key in fragment:
                if key not in keys:
                    keys.append(key)
        return {
            key: _median_merge(
                [fragment.get(key) for fragment in present]
            )
            for key in keys
        }
    numeric = [
        v for v in present
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    ]
    if numeric:
        value = median(numeric)
        return round(value, 6) if isinstance(value, float) else value
    return present[-1]


#: The fields a history record must share with the candidate to count
#: in its baseline: a median over different corpora, worker counts or
#: workloads describes no run.
COMPARABLE_KEYS = ("projects", "jobs", "dialect")


def history_baseline(
    records: list[dict], candidate: dict, *, last: int | None = None
) -> dict:
    """The median-of-history baseline record for ``bench-check``.

    Takes the last ``last`` records (all when ``None``) that match the
    candidate's :data:`COMPARABLE_KEYS` and are not the candidate's own
    run — same ``run_id``, or the same manifest digest — and folds them
    element-wise by median into one record.  Raises when no record is
    left: a missing baseline must fail loudly, not pass vacuously.
    """
    digest = candidate.get("manifest_digest")
    comparable = [
        record for record in records
        if all(record.get(key) == candidate.get(key)
               for key in COMPARABLE_KEYS)
        and record.get("run_id") != candidate.get("run_id")
        and not (digest and record.get("manifest_digest") == digest)
    ]
    if last is not None:
        comparable = comparable[-last:]
    if not comparable:
        identity = ", ".join(
            f"{key}={candidate.get(key)}" for key in COMPARABLE_KEYS
        )
        raise ValueError(
            f"run registry holds no earlier record with {identity} "
            "— nothing to compare against"
        )
    merged = _median_merge(comparable)
    merged["format"] = REGISTRY_FORMAT
    merged["command"] = f"history-median[{len(comparable)}]"
    # medians of identity fields are meaningless — pin the latest
    latest = comparable[-1]
    for key in (
        "run_id", "recorded_at", "environment", "manifest_digest",
        *COMPARABLE_KEYS,
    ):
        merged[key] = latest.get(key)
    return merged
