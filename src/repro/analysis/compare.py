"""Comparison of two studies.

For validating the synthetic corpus against real data (or one scenario
against another): per-measure medians side by side, Kolmogorov–Smirnov
two-sample tests on the distributions, and a rendered diff table.  Any
two :class:`~repro.analysis.StudyResult` objects compare — corpora of
different sizes included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..stats import TestResult, median
from .measures import ProjectMeasures
from .study import StudyResult

#: The per-project measures a comparison covers.
COMPARED_MEASURES: dict[str, Callable[[ProjectMeasures], float | None]] = {
    "sync_10": lambda p: p.sync10,
    "sync_5": lambda p: p.sync5,
    "attainment_75": lambda p: p.attainment(0.75),
    "attainment_100": lambda p: p.attainment(1.00),
    "advance_over_source": lambda p: p.coevolution.advance_over_source,
    "advance_over_time": lambda p: p.coevolution.advance_over_time,
    "duration_months": lambda p: float(p.duration_months),
    "schema_activity": lambda p: p.schema_total_activity,
}


@dataclass(frozen=True)
class MeasureComparison:
    """One measure's distributions in the two studies."""

    measure: str
    median_a: float
    median_b: float
    ks: TestResult

    @property
    def distributions_differ(self) -> bool:
        """Significant at the 0.05 level under the KS two-sample test."""
        return self.ks.p_value < 0.05


@dataclass
class StudyComparison:
    """Side-by-side comparison of two studies."""

    label_a: str
    label_b: str
    rows: list[MeasureComparison]

    def row(self, measure: str) -> MeasureComparison:
        for row in self.rows:
            if row.measure == measure:
                return row
        raise KeyError(measure)

    @property
    def differing_measures(self) -> list[str]:
        return [r.measure for r in self.rows if r.distributions_differ]

    def render(self) -> str:
        from ..report.render import render_table

        return render_table(
            ["measure", f"median {self.label_a}",
             f"median {self.label_b}", "KS p", "differs"],
            [
                [
                    row.measure,
                    f"{row.median_a:.3f}",
                    f"{row.median_b:.3f}",
                    f"{row.ks.p_value:.4f}",
                    "yes" if row.distributions_differ else "no",
                ]
                for row in self.rows
            ],
            title=f"Study comparison: {self.label_a} vs {self.label_b}",
        )


def compare_studies(
    study_a: StudyResult,
    study_b: StudyResult,
    *,
    label_a: str = "A",
    label_b: str = "B",
) -> StudyComparison:
    """Compare two studies measure by measure (KS two-sample tests)."""
    # scipy is imported here, its one user: the study itself never loads it
    from scipy.stats import ks_2samp

    rows: list[MeasureComparison] = []
    for name, extract in COMPARED_MEASURES.items():
        values_a = [
            v for v in (extract(p) for p in study_a.projects)
            if v is not None
        ]
        values_b = [
            v for v in (extract(p) for p in study_b.projects)
            if v is not None
        ]
        if len(values_a) < 3 or len(values_b) < 3:
            continue
        statistic, p_value = ks_2samp(values_a, values_b)
        rows.append(
            MeasureComparison(
                measure=name,
                median_a=median(values_a),
                median_b=median(values_b),
                ks=TestResult(
                    "ks_2samp", float(statistic), float(p_value)
                ),
            )
        )
    return StudyComparison(label_a=label_a, label_b=label_b, rows=rows)
