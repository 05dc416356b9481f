"""Provenance records: why an artifact is warm, stale, or cold.

A pipeline fingerprint is a single opaque sha256 — perfect for
addressing, useless for diagnosis: when a shard recomputes, the key
alone cannot say *which* component moved.  Provenance fixes that by
storing the fingerprint's **structured breakdown** alongside every
artifact (``meta["provenance"]``): the stage's code version, its
declared parameters (for map shards, the project identity — spec and
profile digests), its upstream fingerprints, and the stage source
digest.

``explain`` then answers the operator question directly: given the
*current* plan's breakdown and a store, an artifact is

* **warm** — the current key is stored;
* **stale** — the key is absent but a prior generation of the same
  stage (same project, for shards) is stored, and diffing the two
  breakdowns names the causes ("code_version bumped 2→3", "upstream
  generate digest changed", "params.profile digest changed");
* **cold** — no prior generation exists to diff against.

Workloads surface here through the shard identity: a non-default
``--dialect`` adds a ``dialect`` key to the ``generate`` params, so
switching workloads over a warm store explains as ``params.dialect
added (sqlite)`` (plus the spec digest moved by the vendor draw) —
the (dialect, source) pair is attributable, never an opaque re-key.

This module is deliberately pipeline-free: it compares plain dicts and
scans a store object handed to it, so it can audit any store —
including one written by another process — without importing the
planner.  The
builders live on :class:`~repro.pipeline.graph.Pipeline`, which knows
the live plan.
"""

from __future__ import annotations

#: Version tag carried by every stored provenance block; bump on shape
#: changes so old blocks are diffed best-effort, never trusted blindly.
PROVENANCE_FORMAT = "repro-provenance-v1"

#: Components diffed between a stored breakdown and the current plan.
#: ``source_digest`` is advisory — it does not participate in the
#: fingerprint, so a mismatch alone never re-keys (that is the
#: ``version_drift`` guard's territory).
FINGERPRINT_COMPONENTS = ("code_version", "params", "upstream")


def _is_digest(value) -> bool:
    text = str(value)
    return len(text) == 64 and all(c in "0123456789abcdef" for c in text)


def _short(value) -> str:
    """Digests shortened for humans; everything else verbatim."""
    text = str(value)
    return text[:12] if _is_digest(value) else text


def components_of(provenance: dict) -> dict[str, str]:
    """Flatten one breakdown into comparable ``component → value`` pairs.

    Params and upstream entries flatten per key (``params.profile``,
    ``upstream.generate``) so the diff names the precise member that
    moved, not just the block.
    """
    flat: dict[str, str] = {
        "code_version": str(provenance.get("code_version", "")),
    }
    for name, value in (provenance.get("params") or {}).items():
        flat[f"params.{name}"] = str(value)
    for name, value in (provenance.get("upstream") or {}).items():
        flat[f"upstream.{name}"] = str(value)
    return flat


def match_score(current: dict, stored: dict) -> int:
    """How many components two breakdowns share (candidate ranking)."""
    mine = components_of(current)
    theirs = components_of(stored)
    return sum(
        1 for name, value in mine.items() if theirs.get(name) == value
    )


def diff_components(current: dict, stored: dict) -> list[dict]:
    """Every component that differs, as explain-ready cause records.

    Each record carries the component path, both values, and a
    human-readable ``label`` (the line ``pipeline explain`` prints).
    """
    mine = components_of(current)
    theirs = components_of(stored)
    causes: list[dict] = []
    for name in sorted(set(mine) | set(theirs)):
        stored_value = theirs.get(name)
        current_value = mine.get(name)
        if stored_value == current_value:
            continue
        if name == "code_version":
            label = f"code_version bumped {stored_value}→{current_value}"
        elif name.startswith("upstream."):
            dep = name.split(".", 1)[1]
            label = (
                f"upstream {dep} digest changed "
                f"({_short(stored_value)}→{_short(current_value)})"
            )
        elif stored_value is None:
            label = f"{name} added ({_short(current_value)})"
        elif current_value is None:
            label = f"{name} removed (was {_short(stored_value)})"
        else:
            what = (
                "digest changed"
                if _is_digest(stored_value) or _is_digest(current_value)
                else "changed"
            )
            label = (
                f"{name} {what} "
                f"({_short(stored_value)}→{_short(current_value)})"
            )
        causes.append(
            {
                "component": name,
                "stored": stored_value,
                "current": current_value,
                "label": label,
            }
        )
    return causes


def explain_target(
    store,
    stage: str,
    key: str,
    current: dict,
    *,
    project: str | None = None,
    present: bool = False,
) -> dict:
    """Classify one target (stage, or one shard of a map stage).

    ``current`` is the live plan's breakdown for the target; ``key`` its
    current fingerprint.  The stale path scans the store for the
    best-matching prior generation of the same stage (and project, for
    shards) and diffs breakdowns to produce the cause list; ties break
    on sorted key order, so the answer is deterministic.  ``present``
    marks a target that exists outside the store (a given project's
    ``generate`` output): it is warm without a probe.
    """
    record = {
        "stage": stage,
        "project": project,
        "key": key,
        "state": "warm",
        "causes": [],
        "matched_key": None,
        "source_drift": False,
    }
    if present or store.contains(key):
        return record
    best: dict | None = None
    best_key: str | None = None
    best_score = -1
    for candidate in sorted(store.keys()):
        if candidate == key:
            continue
        meta = store.meta_of(candidate) or {}
        if meta.get("stage") != stage:
            continue
        if project is not None and meta.get("project") != project:
            continue
        stored = meta.get("provenance")
        if not stored:
            continue
        score = match_score(current, stored)
        if score > best_score:
            best, best_key, best_score = stored, candidate, score
    if best is None:
        record["state"] = "cold"
        return record
    causes = diff_components(current, best)
    if not causes:
        # same breakdown, different key: the fingerprint folds
        # something provenance does not capture (format bump)
        causes = [
            {
                "component": "fingerprint",
                "stored": _short(best_key),
                "current": _short(key),
                "label": "fingerprint format or recipe changed",
            }
        ]
    record.update(
        state="stale",
        causes=causes,
        matched_key=best_key,
        source_drift=(
            bool(best.get("source_digest"))
            and best.get("source_digest") != current.get("source_digest")
        ),
    )
    return record


def render_explanation(record: dict) -> str:
    """One target's explain line(s), as ``pipeline explain`` prints them."""
    name = record["stage"]
    if record.get("project"):
        name = f"{name}/{record['project']}"
    state = record["state"]
    if state == "warm":
        return f"{name}: warm ({_short(record['key'])})"
    if state == "cold":
        return f"{name}: cold — no prior artifact to diff against"
    lines = [f"{name}: stale — vs {_short(record['matched_key'])}:"]
    for cause in record["causes"]:
        lines.append(f"  - {cause['label']}")
    if record.get("source_drift"):
        lines.append(
            "  (stage source also drifted — see `pipeline status`)"
        )
    return "\n".join(lines)
