"""The benchmark's catalogue: workloads, metrics and bounds.

Names, reasons, units, directions and bounds are read from the root
``BENCHMARK.json``, the single source of truth.  What a workload *runs*
(corpus size, jobs, dialect, repeats) lives in :data:`WORKLOAD_PARAMS`
here, keyed by the same names; :func:`load` refuses a catalogue whose
two halves disagree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

#: The checkout root: ``bench/`` sits directly under it.
ROOT = Path(__file__).resolve().parent.parent

#: The canonical corpus seed (``repro.corpus.generator.DEFAULT_SEED``).
DEFAULT_SEED = 1952023

#: Per-workload run parameters.  ``projects=None`` is the canonical
#: 195-project corpus; ``edits`` > 0 makes the workload incremental
#: (that many projects re-seeded over a pre-filled store); ``budget_s``
#: is the expected seconds of one repeat, and 10x it is the timeout.
WORKLOAD_PARAMS: dict[str, dict] = {
    "cold-195-j1": {"projects": None, "jobs": 1, "repeats": 5,
                    "budget_s": 8.0},
    "cold-500-j2": {"projects": 500, "jobs": 2, "repeats": 5,
                    "limit_memory_mb": 512, "budget_s": 15.0},
    "incremental-195": {"projects": None, "jobs": 1, "repeats": 10,
                        "edits": 5, "budget_s": 4.0},
    "sqlite-195-j1": {"projects": None, "jobs": 1, "repeats": 5,
                      "dialect": "sqlite", "budget_s": 8.0},
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    projects: int | None
    jobs: int
    repeats: int
    budget_s: float
    dialect: str | None = None
    limit_memory_mb: int | None = None
    edits: int = 0


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    bound: float | None = None  # end-to-end metrics only


@dataclass(frozen=True)
class Catalogue:
    workloads: tuple[Workload, ...]
    end_to_end: tuple[Metric, ...]
    per_layer: tuple[Metric, ...]

    def workload(self, name: str) -> Workload:
        for workload in self.workloads:
            if workload.name == name:
                return workload
        raise KeyError(
            f"unknown workload {name!r}; known: "
            + ", ".join(w.name for w in self.workloads)
        )


def load(path: Path = ROOT / "BENCHMARK.json") -> Catalogue:
    """Read ``BENCHMARK.json`` and join it with :data:`WORKLOAD_PARAMS`."""
    data = json.loads(path.read_text())
    declared = [w["name"] for w in data["workloads"]]
    if sorted(declared) != sorted(WORKLOAD_PARAMS):
        raise ValueError(
            f"BENCHMARK.json workloads {declared} do not match the "
            f"harness's {sorted(WORKLOAD_PARAMS)}"
        )
    return Catalogue(
        workloads=tuple(
            Workload(name=w["name"], why=w["why"],
                     **WORKLOAD_PARAMS[w["name"]])
            for w in data["workloads"]
        ),
        end_to_end=tuple(Metric(**m) for m in data["end_to_end"]),
        per_layer=tuple(Metric(**m) for m in data["per_layer"]),
    )


def render(catalogue: Catalogue) -> str:
    """The ``--list`` text: every workload and metric with its unit."""
    lines = ["workloads:"]
    for w in catalogue.workloads:
        size = w.projects or 195
        extra = f", {w.edits} edited per repeat" if w.edits else ""
        dialect = f", dialect {w.dialect}" if w.dialect else ""
        lines.append(
            f"  {w.name:<17} {size} projects, jobs {w.jobs}, "
            f"{w.repeats} repeats{extra}{dialect}"
        )
        lines.append(f"  {'':<17} {w.why}")
    lines.append("end-to-end metrics (median of untraced repeats):")
    for m in catalogue.end_to_end:
        lines.append(f"  {m.name:<16} {m.unit:<6} {m.better:<6} "
                     f"bound +{m.bound:.0%}")
    lines.append("per-layer metrics (traced repeats):")
    for m in catalogue.per_layer:
        lines.append(f"  {m.name:<38} {m.unit:<6} {m.better}")
    return "\n".join(lines)
