"""The perf-regression watchdog: baseline vs candidate comparison.

``repro bench-check BASELINE CANDIDATE`` compares two perf records and
produces a machine-readable verdict.  Both sides are run-registry
records (:func:`repro.obs.registry.as_record` reads a ``BENCH_*.json``
file as is and turns a run manifest into the record of its run), and
the bounds are fixed:

* per-stage wall seconds may grow by :data:`MAX_REGRESSION` (+25 %);
  stages below :data:`MIN_SECONDS` on both sides are noise and skip;
  ``--stage NAME`` focuses the seconds comparison on one stage (the
  mine microbenchmark's ``--stage mine``);
* the parse-cache hit rate, the statement-level parse-unit reuse rate
  and the artifact-store hit rate may each drop by
  :data:`MAX_RATE_DROP` (10 points); a side that recorded zero lookups
  has no rate, so the check skips — a fully warm run that never parses
  is not a reuse collapse;
* peak RSS may grow by :data:`MAX_RSS_REGRESSION` (+30 %);
* the warning count may not grow;
* comparability guards: corpus size and workload dialect must match,
  and when both records carry a host ``environment`` (hostname /
  platform / cpu count) a mismatch refuses the comparison with a clear
  apples-to-oranges warning unless explicitly allowed.  A ``jobs``
  mismatch only warns: stage rows are summed worker seconds, so totals
  remain comparable but wall clock does not.

The comparison is pure data-in/data-out (no clocks, no host access),
so the watchdog itself can run anywhere — including CI in report-only
mode, where the verdict is printed and persisted but never fails the
build.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Format tag of the verdict document written by ``bench-check --json``.
VERDICT_FORMAT = "repro-bench-check-v1"

#: Relative stage-seconds regression bound (+25 %).
MAX_REGRESSION = 0.25

#: Stages where both sides sit below this many seconds are noise.
MIN_SECONDS = 0.05

#: Tolerated absolute drop of a reuse rate (cache, store, statements).
MAX_RATE_DROP = 0.10

#: Relative peak-RSS growth bound (+30 %).  Looser than the seconds
#: bound: RSS folds allocator and GC noise on top of real footprint, so
#: a tight bound would flag phantom drift.
MAX_RSS_REGRESSION = 0.30

#: Environment keys that must agree for an apples-to-apples comparison.
ENVIRONMENT_KEYS = ("hostname", "platform", "cpu_count")

#: The reuse rates compared, as (check name, label, block of the record,
#: rate key, the counters whose sum is the block's lookup count).
RATE_CHECKS = (
    ("cache_hit_rate", "parse-cache hit rate",
     lambda record: record.get("parse_cache"),
     "hit_rate", ("hits", "misses")),
    ("store_hit_rate", "artifact-store hit rate",
     lambda record: record.get("artifact_store"),
     "hit_rate", ("hits", "recomputes")),
    ("statement_reuse", "statement parse-unit reuse",
     lambda record: (record.get("parse_cache") or {}).get("statements"),
     "reuse_rate", ("unit_hits", "unit_misses")),
)


@dataclass
class Check:
    """One comparison line of the verdict."""

    name: str
    status: str  # "pass" | "fail" | "warn" | "skip"
    baseline: float | None = None
    candidate: float | None = None
    ratio: float | None = None  # relative change, candidate vs baseline
    threshold: float | None = None
    message: str = ""

    def as_dict(self) -> dict:
        out: dict = {"name": self.name, "status": self.status}
        for key in ("baseline", "candidate", "ratio", "threshold"):
            value = getattr(self, key)
            if value is not None:
                out[key] = round(value, 6)
        if self.message:
            out["message"] = self.message
        return out


@dataclass
class RegressionReport:
    """The full verdict: every check plus pass/fail roll-up."""

    baseline: str
    candidate: str
    checks: list[Check] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return any(check.status == "fail" for check in self.checks)

    @property
    def verdict(self) -> str:
        return "fail" if self.failed else "pass"

    def as_dict(self) -> dict:
        """Machine-readable verdict (the ``--json`` payload)."""
        return {
            "format": VERDICT_FORMAT,
            "verdict": self.verdict,
            "baseline": self.baseline,
            "candidate": self.candidate,
            "checks": [check.as_dict() for check in self.checks],
        }

    def render(self) -> str:
        """Human-readable verdict table."""
        lines = [
            f"bench-check: baseline {self.baseline} "
            f"vs candidate {self.candidate}"
        ]
        for check in self.checks:
            detail = check.message
            if check.ratio is not None and not detail:
                # a stage-seconds check: the only kind without a message
                detail = (
                    f"{check.baseline:.3f}s -> {check.candidate:.3f}s "
                    f"{check.ratio:+.1%} (limit {check.threshold:+.0%})"
                )
            lines.append(
                f"  {check.status.upper():<4} {check.name:<24} {detail}"
            )
        lines.append(f"verdict: {self.verdict.upper()}")
        return "\n".join(lines)


def compare_records(
    baseline: dict,
    candidate: dict,
    *,
    stage: str | None = None,
    allow_env_mismatch: bool = False,
) -> RegressionReport:
    """Compare two run-registry records and return the full verdict.

    ``stage`` focuses the seconds comparison on one stage (``--stage
    mine`` for the mine microbenchmark); the comparability guards and
    the rate checks still run, the other stages' seconds are ignored.
    The report is labelled with each record's ``command``.
    """
    report = RegressionReport(
        baseline=str(baseline.get("command")),
        candidate=str(candidate.get("command")),
    )
    checks = report.checks

    # -- comparability guards ------------------------------------------
    checks.append(_environment_check(
        baseline.get("environment"), candidate.get("environment"),
        allow_env_mismatch,
    ))
    base_n, cand_n = baseline.get("projects"), candidate.get("projects")
    if base_n is not None and cand_n is not None and base_n != cand_n:
        checks.append(Check(
            name="projects",
            status="fail",
            baseline=float(base_n),
            candidate=float(cand_n),
            message=(
                f"corpus size differs ({base_n} vs {cand_n}) — stage "
                "seconds are not comparable"
            ),
        ))
    base_dialect = baseline.get("dialect") or "canonical"
    cand_dialect = candidate.get("dialect") or "canonical"
    if base_dialect != cand_dialect:
        checks.append(Check(
            name="dialect",
            status="fail",
            message=(
                f"workload differs ({base_dialect} vs {cand_dialect}) — "
                "different corpora, nothing is comparable"
            ),
        ))
    base_jobs, cand_jobs = baseline.get("jobs"), candidate.get("jobs")
    if base_jobs is not None and cand_jobs is not None \
            and base_jobs != cand_jobs:
        checks.append(Check(
            name="jobs",
            status="warn",
            baseline=float(base_jobs),
            candidate=float(cand_jobs),
            message=(
                f"jobs differ ({base_jobs} vs {cand_jobs}); stage rows "
                "are summed worker seconds, wall clock is not comparable"
            ),
        ))

    # -- per-stage wall seconds ----------------------------------------
    base_stages = baseline.get("stages") or {}
    cand_stages = candidate.get("stages") or {}
    focus = [stage] if stage is not None else [*base_stages] + [
        name for name in cand_stages if name not in base_stages
    ]
    for name in focus:
        if name not in base_stages and name not in cand_stages:
            checks.append(Check(
                name=f"stage:{name}",
                status="fail",
                message="focused stage missing from both sides",
            ))
            continue
        if name not in base_stages or name not in cand_stages:
            side = "baseline" if name not in base_stages else "candidate"
            checks.append(Check(
                name=f"stage:{name}",
                status="skip",
                message=f"stage missing from {side}",
            ))
            continue
        base = float(base_stages[name])
        cand = float(cand_stages[name])
        if base < MIN_SECONDS and cand < MIN_SECONDS:
            checks.append(Check(
                name=f"stage:{name}",
                status="skip",
                baseline=base,
                candidate=cand,
                message=f"below the {MIN_SECONDS}s noise floor",
            ))
            continue
        ratio = (cand - base) / max(base, MIN_SECONDS)
        checks.append(Check(
            name=f"stage:{name}",
            status="fail" if ratio > MAX_REGRESSION else "pass",
            baseline=base,
            candidate=cand,
            ratio=ratio,
            threshold=MAX_REGRESSION,
        ))

    # -- reuse rates ----------------------------------------------------
    # a rate collapse is a regression before the seconds show it: the
    # parse cache or the incremental engine stopped sharing parse work,
    # or a warm rerun recomputes stages it used to replay
    for name, label, block, key, counters in RATE_CHECKS:
        base_rate = _rate(block(baseline), key, counters)
        cand_rate = _rate(block(candidate), key, counters)
        if base_rate is not None and cand_rate is not None:
            drop = base_rate - cand_rate
            checks.append(Check(
                name=name,
                status="fail" if drop > MAX_RATE_DROP else "pass",
                baseline=base_rate,
                candidate=cand_rate,
                ratio=-drop,
                threshold=MAX_RATE_DROP,
                message=(
                    f"{label} {base_rate:.1%} -> {cand_rate:.1%} "
                    f"(tolerated drop {MAX_RATE_DROP:.0%})"
                ),
            ))
        elif base_rate is not None or cand_rate is not None:
            checks.append(Check(
                name=name,
                status="skip",
                message=(
                    f"{label} missing from one side (not recorded, or "
                    "zero lookups)"
                ),
            ))

    # -- peak RSS drift -------------------------------------------------
    # the memory-budget guard: a run whose footprint grows past the
    # bound fails even when its seconds look fine
    base_rss = (baseline.get("resources") or {}).get("peak_rss_bytes")
    cand_rss = (candidate.get("resources") or {}).get("peak_rss_bytes")
    if base_rss and cand_rss:
        ratio = (cand_rss - base_rss) / base_rss
        checks.append(Check(
            name="peak_rss",
            status="fail" if ratio > MAX_RSS_REGRESSION else "pass",
            baseline=float(base_rss),
            candidate=float(cand_rss),
            ratio=ratio,
            threshold=MAX_RSS_REGRESSION,
            message=(
                f"peak RSS {base_rss / 2**20:.0f} MiB -> "
                f"{cand_rss / 2**20:.0f} MiB {ratio:+.1%} "
                f"(limit +{MAX_RSS_REGRESSION:.0%})"
            ),
        ))
    elif base_rss or cand_rss:
        checks.append(Check(
            name="peak_rss",
            status="skip",
            message=(
                "resource telemetry missing from one side "
                "(pre-telemetry record)"
            ),
        ))

    # -- warning counts -------------------------------------------------
    base_warn = baseline.get("warning_count")
    cand_warn = candidate.get("warning_count")
    if base_warn is not None and cand_warn is not None:
        checks.append(Check(
            name="warnings",
            status="fail" if cand_warn > base_warn else "pass",
            baseline=float(base_warn),
            candidate=float(cand_warn),
            message=f"warning count {base_warn} -> {cand_warn}",
        ))
    else:
        checks.append(Check(
            name="warnings",
            status="skip",
            message="warning counts missing from one side",
        ))

    return report


def _rate(block: dict | None, key: str, counters: tuple) -> float | None:
    """A reuse rate, or ``None`` when there is none to compare.

    ``None`` when the block or its rate is absent (a record older than
    the counter) and when the counters sum to zero lookups: a run that
    looked nothing up records a vacuous 0.0 that would read as
    "everything missed" against any warm baseline.
    """
    if not block or block.get(key) is None:
        return None
    if not sum(block.get(counter) or 0 for counter in counters):
        return None
    return float(block[key])


def _environment_check(
    baseline: dict | None, candidate: dict | None, allow: bool
) -> Check:
    if not baseline or not candidate:
        return Check(
            name="environment",
            status="skip",
            message=(
                "host environment not recorded on both sides "
                "(older record); cross-machine drift cannot be ruled out"
            ),
        )
    mismatched = [
        key
        for key in ENVIRONMENT_KEYS
        if baseline.get(key) != candidate.get(key)
    ]
    if not mismatched:
        return Check(name="environment", status="pass")
    detail = ", ".join(
        f"{key}: {baseline.get(key)!r} vs {candidate.get(key)!r}"
        for key in mismatched
    )
    return Check(
        name="environment",
        status="warn" if allow else "fail",
        message=(
            "apples-to-oranges baseline: host environment differs "
            f"({detail})"
            + ("" if allow else " — refusing comparison; rerun with "
               "--allow-env-mismatch to override")
        ),
    )
