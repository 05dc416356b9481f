"""The statistical analysis of §7.

* Normality: Shapiro–Wilk over every studied attribute (the paper finds
  p < 0.007 everywhere, i.e. nothing is normal).
* Taxon effects: Kruskal–Wallis of taxon over 10%-synchronicity and over
  the 75%-attainment fractional timepoint, with per-taxon medians.
* Lag: χ² and Freeman–Halton (r×c Fisher) exact tests of taxon ×
  always-in-advance, for time, source and both.
* Correlations: Kendall τ-b between the 5%- and 10%-synchronicity and
  between the advance-over-time and advance-over-source measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..stats import (
    TestResult,
    chi_square,
    fisher_exact_rxc,
    kendall_tau_b,
    kruskal_wallis,
    median,
    shapiro_wilk,
)
from ..taxa import TAXA_ORDER, Taxon
from .measures import ProjectMeasures


@dataclass
class TaxonEffect:
    """Kruskal–Wallis result plus per-taxon medians for one measure."""

    measure: str
    test: TestResult
    medians: dict[Taxon, float] = field(default_factory=dict)


@dataclass
class LagTest:
    """χ² and Fisher tests of taxon × one always-in-advance flag."""

    flag: str
    table: list[list[int]]
    chi2: TestResult
    fisher: TestResult


@dataclass
class StatisticsReport:
    """Everything §7 reports."""

    normality: dict[str, TestResult]
    sync_effect: TaxonEffect
    attainment_effect: TaxonEffect
    lag_tests: dict[str, LagTest]
    tau_sync: TestResult
    tau_advance: TestResult


def _groups_by_taxon(
    projects: list[ProjectMeasures], values
) -> list[list[float]]:
    groups = []
    for taxon in TAXA_ORDER:
        group = [
            values(p) for p in projects
            if p.taxon is taxon and values(p) is not None
        ]
        groups.append(group)
    return groups


def _taxon_effect(
    projects: list[ProjectMeasures], measure: str, values
) -> TaxonEffect:
    groups = _groups_by_taxon(projects, values)
    test = kruskal_wallis([g for g in groups if g])
    medians = {
        taxon: median(group)
        for taxon, group in zip(TAXA_ORDER, groups)
        if group
    }
    return TaxonEffect(measure=measure, test=test, medians=medians)


def _lag_test(
    projects: list[ProjectMeasures], flag_name: str, flag
) -> LagTest:
    table = []
    for taxon in TAXA_ORDER:
        group = [p for p in projects if p.taxon is taxon]
        yes = sum(1 for p in group if flag(p))
        table.append([yes, len(group) - yes])
    populated = [row for row in table if sum(row) > 0]
    return LagTest(
        flag=flag_name,
        table=table,
        chi2=chi_square(populated),
        fisher=fisher_exact_rxc(populated),
    )


def sec7_statistics(projects: list[ProjectMeasures]) -> StatisticsReport:
    """Run the full §7 battery over the study's measure rows.

    The taxon effects run first: their Kruskal–Wallis tests reject a
    study too small to test, before any normality test can warn about
    it.
    """
    sync_effect = _taxon_effect(projects, "sync_10", lambda p: p.sync10)
    attainment_effect = _taxon_effect(
        projects, "attainment_75", lambda p: p.attainment(0.75)
    )

    attributes = {
        "sync_10": lambda p: p.sync10,
        "sync_5": lambda p: p.sync5,
        "attainment_75": lambda p: p.attainment(0.75),
        "duration_months": lambda p: float(p.duration_months),
        "schema_activity": lambda p: p.schema_total_activity,
        "project_activity": lambda p: p.project_total_updates,
    }
    normality = {
        name: shapiro_wilk([values(p) for p in projects])
        for name, values in attributes.items()
    }

    lag_tests = {
        "time": _lag_test(
            projects, "time", lambda p: p.coevolution.always_over_time
        ),
        "source": _lag_test(
            projects, "source", lambda p: p.coevolution.always_over_source
        ),
        "both": _lag_test(
            projects, "both", lambda p: p.coevolution.always_over_both
        ),
    }

    tau_sync = kendall_tau_b(
        [p.sync5 for p in projects], [p.sync10 for p in projects]
    )
    defined = [
        p for p in projects
        if p.coevolution.advance_over_time is not None
        and p.coevolution.advance_over_source is not None
    ]
    tau_advance = kendall_tau_b(
        [p.coevolution.advance_over_time for p in defined],
        [p.coevolution.advance_over_source for p in defined],
    )
    return StatisticsReport(
        normality=normality,
        sync_effect=sync_effect,
        attainment_effect=attainment_effect,
        lag_tests=lag_tests,
        tau_sync=tau_sync,
        tau_advance=tau_advance,
    )
