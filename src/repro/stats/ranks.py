"""Rank-based statistics and their null distributions, from scratch.

The paper's analysis (§7) is entirely non-parametric: Kendall τ for the
correlation of measures, Kruskal–Wallis for taxon effects, Shapiro–Wilk
for normality.  All three are implemented here directly (with tie
corrections), together with the integer-df χ² upper tail that
Kruskal–Wallis and the contingency χ² test read their p-values from.
The test suite cross-checks every one of them against scipy, which the
study itself never imports.
"""

from __future__ import annotations

import math
import warnings
from statistics import NormalDist
from typing import Sequence

from .result import TestResult


def rank_with_ties(values: Sequence[float]) -> list[float]:
    """Average ranks (1-based), ties sharing their mean rank."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while (
            j + 1 < len(order)
            and values[order[j + 1]] == values[order[i]]
        ):
            j += 1
        mean_rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def kendall_tau_b(x: Sequence[float], y: Sequence[float]) -> TestResult:
    """Kendall's τ-b rank correlation with tie correction.

    Returns the statistic and a normal-approximation two-sided p-value
    (adequate for n ≥ 10, which all the study's uses satisfy).
    """
    if len(x) != len(y):
        raise ValueError("x and y must have equal length")
    n = len(x)
    if n < 2:
        raise ValueError("need at least two observations")

    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            product = dx * dy
            if product > 0:
                concordant += 1
            elif product < 0:
                discordant += 1

    n0 = n * (n - 1) // 2
    n1 = _tie_pairs(x)
    n2 = _tie_pairs(y)
    denominator = math.sqrt((n0 - n1) * (n0 - n2))
    if denominator == 0:
        return TestResult("kendall_tau_b", float("nan"), 1.0)
    tau = (concordant - discordant) / denominator

    # normal approximation of the null distribution of tau
    variance = (2 * (2 * n + 5)) / (9 * n * (n - 1))
    z = tau / math.sqrt(variance)
    p = 2 * (1 - _normal_cdf(abs(z)))
    return TestResult(
        "kendall_tau_b",
        tau,
        p,
        details={"concordant": concordant, "discordant": discordant, "z": z},
    )


def _tie_pairs(values: Sequence[float]) -> int:
    counts: dict[float, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return sum(c * (c - 1) // 2 for c in counts.values())


def _normal_cdf(z: float) -> float:
    return 0.5 * (1 + math.erf(z / math.sqrt(2)))


def kruskal_wallis(groups: Sequence[Sequence[float]]) -> TestResult:
    """Kruskal–Wallis H test over k independent groups, with ties.

    The p-value uses the χ² approximation with k−1 degrees of freedom,
    standard for group sizes ≥ 5 (all taxa qualify).
    """
    groups = [list(g) for g in groups if len(g) > 0]
    k = len(groups)
    if k < 2:
        raise ValueError("need at least two non-empty groups")
    pooled: list[float] = [v for g in groups for v in g]
    n = len(pooled)
    if n <= k:
        raise ValueError("too few observations")
    ranks = rank_with_ties(pooled)

    h = 0.0
    offset = 0
    for group in groups:
        size = len(group)
        rank_sum = sum(ranks[offset:offset + size])
        h += rank_sum * rank_sum / size
        offset += size
    h = 12 / (n * (n + 1)) * h - 3 * (n + 1)

    # tie correction
    counts: dict[float, int] = {}
    for v in pooled:
        counts[v] = counts.get(v, 0) + 1
    tie_term = sum(c ** 3 - c for c in counts.values())
    correction = 1 - tie_term / (n ** 3 - n)
    if correction > 0:
        h /= correction

    p = _chi2_sf(h, k - 1)
    group_medians = [median(g) for g in groups]
    return TestResult(
        "kruskal_wallis",
        h,
        p,
        details={"df": k - 1, "group_medians": group_medians},
    )


def median(values: Sequence[float]) -> float:
    """Plain sample median (interpolated for even sizes)."""
    if not values:
        raise ValueError("median of empty sequence")
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2


def _chi2_sf(x: float, df: int) -> float:
    """Upper tail ``P(χ²_df > x)`` for integer degrees of freedom ``df``.

    Closed form: for even ``df`` the tail is the Poisson probability
    ``P(Poisson(x/2) < df/2)``; for odd ``df`` it is ``erfc(√(x/2))`` plus
    a series of ``(df − 1)/2`` positive terms.  Every term is positive, so
    nothing cancels, and each is taken from its logarithm, so none
    underflows before the tail itself does (``e^(−x/2)`` alone is 0.0
    past x ≈ 1490, where the tail at df ≈ x is still ½).  The relative
    error grows with the exponents: ~1e-13 for df ≤ 30, ~1e-12 at
    df = 5000.  Like scipy, ``x ≤ 0`` gives 1.0 and ``df < 1`` NaN.
    """
    if df < 1:
        return math.nan
    half = x / 2
    if half <= 0:  # x ≤ 0, or so small that x/2 rounds to 0
        return 1.0
    if math.isinf(half):
        return 0.0
    log_half = math.log(half)
    if df % 2 == 0:
        terms = [math.exp(i * log_half - half - math.lgamma(i + 1))
                 for i in range(df // 2)]
    else:
        terms = [math.erfc(math.sqrt(half))] + [
            math.exp((i + 0.5) * log_half - half - math.lgamma(i + 1.5))
            for i in range(df // 2)
        ]
    total = math.fsum(terms)
    # rounding in the exponents can lift a tail of ~1 just past 1
    return 1.0 if total > 1 else total


#: Royston's (1995, AS R94) polynomial approximations, lowest order first:
#: the two largest coefficients (C1, C2, in 1/√n), the mean and log-sd of
#: the normalising transform of W for n ≤ 11 (C3, C4, in n) and for
#: n ≥ 12 (C5, C6, in log n), and G, for n ≤ 11, in that transform
#: ``−log(G − log(1 − W))``.
_SW_C1 = (0.0, 0.221157, -0.147981, -2.07119, 4.434685, -2.706056)
_SW_C2 = (0.0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633)
_SW_C3 = (0.544, -0.39978, 0.025054, -6.714e-4)
_SW_C4 = (1.3822, -0.77857, 0.062767, -0.0020322)
_SW_C5 = (-1.5861, -0.31082, -0.083751, 0.0038915)
_SW_C6 = (-0.4803, -0.082676, 0.0030302)
_SW_G = (-2.273, 0.459)
#: AS R94's zero-range threshold.
_SW_SMALL = 1e-19
#: The standard normal, whose quantiles place the expected order statistics.
_NORMAL = NormalDist()


def _poly(coefficients: Sequence[float], x: float) -> float:
    """AS R94's POLY: ``c[0] + c[1]·x + c[2]·x² + …`` by Horner's rule."""
    result = 0.0
    for c in reversed(coefficients[1:]):
        result = (result + c) * x
    return coefficients[0] + result


def _shapiro_coefficients(n: int) -> list[float]:
    """The ``n // 2`` positive Shapiro–Wilk weights, largest first."""
    if n == 3:
        return [math.sqrt(0.5)]
    an25 = n + 0.25
    m = [_NORMAL.inv_cdf((i - 0.375) / an25)
         for i in range(1, n // 2 + 1)]
    summ2 = 2 * sum(v * v for v in m)
    ssumm2 = math.sqrt(summ2)
    rsn = 1 / math.sqrt(n)
    a1 = _poly(_SW_C1, rsn) - m[0] / ssumm2
    if n > 5:
        a2 = -m[1] / ssumm2 + _poly(_SW_C2, rsn)
        fac = math.sqrt((summ2 - 2 * m[0] ** 2 - 2 * m[1] ** 2)
                        / (1 - 2 * a1 ** 2 - 2 * a2 ** 2))
        head = [a1, a2]
    else:
        fac = math.sqrt((summ2 - 2 * m[0] ** 2) / (1 - 2 * a1 ** 2))
        head = [a1]
    return head + [-v / fac for v in m[len(head):]]


def shapiro_wilk(values: Sequence[float]) -> TestResult:
    """Shapiro–Wilk normality test: Royston's algorithm AS R94.

    The algorithm ``scipy.stats.shapiro`` runs, with its conventions:
    the sorted data are shifted by the *unsorted* middle value
    ``values[n // 2]``; n = 3 has the exact p-value
    ``6/π·(asin √W − π/3)``; a range below 1e-19 returns ``W = p = 1``
    with a :class:`UserWarning`, and n > 5000 warns that the p-value may
    be inaccurate.  The upper normal tail is :func:`math.erfc`.  The
    weights use exact normal quantiles where scipy's use the AS 111
    approximation, so W differs from scipy's in about its ninth digit,
    and p, steep in W when W is near 1, by up to ~3e-6 relative at
    n = 5000.
    """
    n = len(values)
    if n < 3:
        raise ValueError("Shapiro-Wilk needs at least 3 observations")
    shift = float(values[n // 2])
    x = [float(v) - shift for v in sorted(values)]
    span = x[-1] - x[0]
    if span < _SW_SMALL:
        warnings.warn(
            "shapiro_wilk: input data has range zero; "
            "the results may not be accurate.",
            UserWarning, stacklevel=2,
        )
        return TestResult("shapiro_wilk", 1.0, 1.0)
    if n > 5000:
        warnings.warn(
            "shapiro_wilk: for n > 5000 the p-value may not be accurate; "
            f"n is {n}.",
            UserWarning, stacklevel=2,
        )

    # antisymmetric weights, 0 for the middle of an odd sample
    a = _shapiro_coefficients(n)
    weights = [-v for v in a] + [0.0] * (n % 2) + a[::-1]
    scaled = [v / span for v in x]
    mean_a = sum(weights) / n
    mean_x = sum(scaled) / n
    ssa = ssx = sax = 0.0
    for weight, value in zip(weights, scaled):
        asa = weight - mean_a
        xsx = value - mean_x
        ssa += asa * asa
        ssx += xsx * xsx
        sax += asa * xsx
    # 1 − W, in a form that keeps its precision when W is close to 1
    ssassx = math.sqrt(ssa * ssx)
    w1 = (ssassx - sax) * (ssassx + sax) / (ssa * ssx)
    w = 1 - w1
    if w1 <= 0:
        # W rounded to 1 or above (data proportional to the weights):
        # scipy's tail reads p = 1 here, where log(1 − W) is undefined
        return TestResult("shapiro_wilk", w, 1.0)

    if n == 3:
        # 6/π·(asin √W − π/3), written as scipy evaluates it
        p = 1 - 6 / math.pi * math.acos(math.sqrt(w))
        return TestResult("shapiro_wilk", w, p)
    y = math.log(w1)
    if n <= 11:
        # AS R94 returns p = 1e-19 once log(1 − W) reaches G; no sample
        # does (W ≥ 0.63 at n = 4, and from n = 5 on G > 0 ≥ log(1 − W))
        y = -math.log(_poly(_SW_G, n) - y)
        m = _poly(_SW_C3, n)
        s = math.exp(_poly(_SW_C4, n))
    else:
        log_n = math.log(n)
        m = _poly(_SW_C5, log_n)
        s = math.exp(_poly(_SW_C6, log_n))
    p = 0.5 * math.erfc((y - m) / s / math.sqrt(2))
    return TestResult("shapiro_wilk", w, p)
