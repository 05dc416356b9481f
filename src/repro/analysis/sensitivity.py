"""Sensitivity analyses for the study's fixed choices.

§8 of the paper names two construct-validity choices this module
stress-tests quantitatively:

* the **chronon** — "our unit of time is the month"; every measure is
  recomputed at coarser granularities (quarter, half-year) and the
  per-project measures are correlated against the monthly baseline;
* the **corpus draw** — the synthetic study adds a third axis the paper
  cannot have: re-running the whole study across generator seeds and
  reporting the spread of each headline number.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..coevolution import (
    CoevolutionMeasures,
    JointProgress,
)
from ..stats import kendall_tau_b, median
from .measures import ProjectMeasures


@dataclass(frozen=True)
class ChrononComparison:
    """Monthly vs coarse-chronon agreement for one measure."""

    measure: str
    chronon_months: int
    kendall_tau: float
    median_monthly: float
    median_coarse: float


def coarse_joint(project: ProjectMeasures, chronon_months: int) -> JointProgress:
    """The project's joint progress recomputed at a coarser chronon.

    Reconstructs the two activity heartbeats from the stored cumulative
    fractions (they are exact up to float noise), rebuckets them, and
    realigns.
    """
    from ..heartbeat import Heartbeat

    def heartbeat_from(series: tuple[float, ...], total: float) -> Heartbeat:
        increments = [series[0]] + [
            b - a for a, b in zip(series, series[1:])
        ]
        return Heartbeat(
            project.joint.start,
            [max(0.0, inc) * total for inc in increments],
        )

    schema = heartbeat_from(
        project.joint.schema, project.schema_total_activity or 1.0
    )
    source = heartbeat_from(
        project.joint.project, project.project_total_updates or 1.0
    )
    return JointProgress.from_heartbeats(
        source.rebucket(chronon_months), schema.rebucket(chronon_months)
    )


def chronon_sensitivity(
    projects: list[ProjectMeasures],
    *,
    chronon_months: int = 3,
) -> list[ChrononComparison]:
    """Compare the headline measures at monthly vs coarse granularity."""
    monthly_sync: list[float] = []
    coarse_sync: list[float] = []
    monthly_att: list[float] = []
    coarse_att: list[float] = []
    for project in projects:
        if project.joint.n_points < 2 * chronon_months:
            continue  # too short to rebucket meaningfully
        coarse = CoevolutionMeasures.of(
            coarse_joint(project, chronon_months)
        )
        monthly_sync.append(project.sync10)
        coarse_sync.append(coarse.sync[0.10])
        monthly_att.append(project.attainment(0.75))
        coarse_att.append(coarse.attainment[0.75])
    return [
        ChrononComparison(
            measure="sync_10",
            chronon_months=chronon_months,
            kendall_tau=kendall_tau_b(monthly_sync, coarse_sync).statistic,
            median_monthly=median(monthly_sync),
            median_coarse=median(coarse_sync),
        ),
        ChrononComparison(
            measure="attainment_75",
            chronon_months=chronon_months,
            kendall_tau=kendall_tau_b(monthly_att, coarse_att).statistic,
            median_monthly=median(monthly_att),
            median_coarse=median(coarse_att),
        ),
    ]


@dataclass(frozen=True)
class SeedSpread:
    """The spread of one headline number across generator seeds."""

    measure: str
    values: tuple[float, ...]

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values)

    @property
    def spread(self) -> float:
        return max(self.values) - min(self.values)


def seed_sensitivity(
    seeds: tuple[int, ...],
    *,
    keys: tuple[str, ...] = (
        "always_over_time",
        "always_over_source",
        "attain75_first20",
        "attain100_after80",
        "hand_in_hand",
    ),
) -> list[SeedSpread]:
    """Re-run the whole study per seed; collect headline spreads."""
    from ..pipeline import NullStore, Pipeline

    collected: dict[str, list[float]] = {key: [] for key in keys}
    for seed in seeds:
        headline = Pipeline(seed=seed, store=NullStore()).study().headline()
        for key in keys:
            collected[key].append(float(headline[key]))
    return [
        SeedSpread(measure=key, values=tuple(values))
        for key, values in collected.items()
    ]
