"""Unit tests for the rank-based statistics (cross-checked against scipy)."""

import math
import random
import warnings

import pytest
import scipy.stats

from repro.analysis import canonical_study
from repro.stats import (
    kendall_tau_b,
    kruskal_wallis,
    median,
    rank_with_ties,
    shapiro_wilk,
)
from repro.stats.ranks import _chi2_sf, _shapiro_coefficients


class TestRankWithTies:
    def test_no_ties(self):
        assert rank_with_ties([30, 10, 20]) == [3.0, 1.0, 2.0]

    def test_ties_share_mean_rank(self):
        assert rank_with_ties([5, 5, 1]) == [2.5, 2.5, 1.0]

    def test_all_equal(self):
        assert rank_with_ties([7, 7, 7]) == [2.0, 2.0, 2.0]

    def test_empty(self):
        assert rank_with_ties([]) == []


class TestKendallTau:
    def test_perfect_agreement(self):
        result = kendall_tau_b([1, 2, 3, 4], [10, 20, 30, 40])
        assert result.statistic == pytest.approx(1.0)

    def test_perfect_disagreement(self):
        result = kendall_tau_b([1, 2, 3, 4], [4, 3, 2, 1])
        assert result.statistic == pytest.approx(-1.0)

    def test_matches_scipy_no_ties(self):
        rng = random.Random(1)
        x = [rng.random() for _ in range(60)]
        y = [rng.random() for _ in range(60)]
        ours = kendall_tau_b(x, y)
        theirs = scipy.stats.kendalltau(x, y)
        assert ours.statistic == pytest.approx(theirs.statistic, abs=1e-9)

    def test_matches_scipy_with_ties(self):
        rng = random.Random(2)
        x = [rng.randint(0, 5) for _ in range(80)]
        y = [rng.randint(0, 5) for _ in range(80)]
        ours = kendall_tau_b(x, y)
        theirs = scipy.stats.kendalltau(x, y)
        assert ours.statistic == pytest.approx(theirs.statistic, abs=1e-9)

    def test_p_value_small_for_strong_correlation(self):
        x = list(range(50))
        y = [v + 0.01 for v in x]
        assert kendall_tau_b(x, y).p_value < 1e-6

    def test_p_value_large_for_noise(self):
        rng = random.Random(3)
        x = [rng.random() for _ in range(100)]
        y = [rng.random() for _ in range(100)]
        assert kendall_tau_b(x, y).p_value > 0.01

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kendall_tau_b([1], [1, 2])

    def test_degenerate_constant_series(self):
        result = kendall_tau_b([1, 1, 1], [1, 2, 3])
        assert result.p_value == 1.0


class TestKruskalWallis:
    def test_matches_scipy(self):
        rng = random.Random(4)
        groups = [
            [rng.gauss(mu, 1) for _ in range(20)] for mu in (0, 0.5, 2.0)
        ]
        ours = kruskal_wallis(groups)
        theirs = scipy.stats.kruskal(*groups)
        assert ours.statistic == pytest.approx(theirs.statistic, rel=1e-9)
        assert ours.p_value == pytest.approx(theirs.pvalue, rel=1e-6)

    def test_matches_scipy_with_ties(self):
        rng = random.Random(5)
        groups = [
            [rng.randint(0, 4) for _ in range(25)] for _ in range(4)
        ]
        ours = kruskal_wallis(groups)
        theirs = scipy.stats.kruskal(*groups)
        assert ours.statistic == pytest.approx(theirs.statistic, rel=1e-9)

    def test_detects_separated_groups(self):
        groups = [[1, 2, 3, 4, 5], [11, 12, 13, 14, 15]]
        assert kruskal_wallis(groups).p_value < 0.01

    def test_identical_groups_not_significant(self):
        rng = random.Random(6)
        base = [rng.random() for _ in range(30)]
        assert kruskal_wallis([base, list(base)]).p_value > 0.5

    def test_empty_groups_dropped(self):
        result = kruskal_wallis([[1, 2, 3], [], [4, 5, 6]])
        assert result.details["df"] == 1

    def test_single_group_rejected(self):
        with pytest.raises(ValueError):
            kruskal_wallis([[1, 2, 3]])

    def test_group_medians_in_details(self):
        result = kruskal_wallis([[1, 2, 3], [10, 20, 30]])
        assert result.details["group_medians"] == [2, 20]


class TestMedian:
    def test_odd(self):
        assert median([3, 1, 2]) == 2

    def test_even_interpolates(self):
        assert median([1, 2, 3, 4]) == 2.5

    def test_single(self):
        assert median([9]) == 9

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            median([])


def _shapiro_samples():
    """Seeded (id, sample) pairs: four shapes at sizes on every branch.

    n = 3 is exact, n ≤ 5 normalises one weight and n ≥ 6 two, n ≤ 11
    and n ≥ 12 use different p-value polynomials, and 5000 is the
    largest n scipy does not warn about.  The offset sample is far from
    0 relative to its spread, which only the shift by a middle value
    keeps precise.
    """
    rng = random.Random(20230331)
    shapes = {
        "normal": lambda: rng.gauss(10, 3),
        "skewed": lambda: rng.lognormvariate(0, 1),
        "tied": lambda: round(rng.gauss(0, 1), 1),
        "integer": lambda: rng.randint(0, 9),
    }
    for n in (3, 4, 5, 6, 11, 12, 50, 195, 1000, 5000):
        for shape, draw in shapes.items():
            yield f"{shape}-{n}", [draw() for _ in range(n)]
    yield "offset-195", [1e9 + rng.gauss(0, 1) for _ in range(195)]


SHAPIRO_SAMPLES = dict(_shapiro_samples())


class TestShapiroWilk:
    def test_rejects_uniform_large_sample(self):
        rng = random.Random(7)
        data = [rng.random() for _ in range(200)]
        assert shapiro_wilk(data).p_value < 0.01

    def test_accepts_normal_sample(self):
        rng = random.Random(8)
        data = [rng.gauss(0, 1) for _ in range(100)]
        assert shapiro_wilk(data).p_value > 0.001

    def test_too_few_observations(self):
        with pytest.raises(ValueError):
            shapiro_wilk([1.0, 2.0])

    @pytest.mark.parametrize("name", sorted(SHAPIRO_SAMPLES))
    def test_matches_scipy(self, name):
        """W agrees with scipy to 1e-8 relative and p to 1e-6; n = 3,
        exact in both, to 1e-15.

        The weights here use exact normal quantiles and scipy's the AS 111
        approximation, which moves W in about its ninth digit (measured:
        4.4e-9 at most).  At n = 5000 W is near 1 and p steep in it, so p
        moves further: 1.1e-6 on these samples and 2.9e-6 at most over
        200 other seeded ones; p is held to 3e-6 there.
        """
        data = SHAPIRO_SAMPLES[name]
        if len(data) == 3:
            w_rel = p_rel = 1e-15
        else:
            w_rel, p_rel = 1e-8, (3e-6 if len(data) == 5000 else 1e-6)
        ours = shapiro_wilk(data)
        theirs = scipy.stats.shapiro(data)
        assert ours.statistic == pytest.approx(theirs.statistic, rel=w_rel)
        assert ours.p_value == pytest.approx(theirs.pvalue, rel=p_rel)

    @pytest.mark.parametrize(
        "data", [[2.5] * 7, [0.0, 0.0, 0.0, 1e-20]], ids=["constant", "tiny"]
    )
    def test_zero_range_returns_one_and_warns(self, data):
        with pytest.warns(UserWarning, match="range zero"):
            result = shapiro_wilk(data)
        assert (result.statistic, result.p_value) == (1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            theirs = scipy.stats.shapiro(data)
        assert (theirs.statistic, theirs.pvalue) == (1.0, 1.0)

    @pytest.mark.parametrize("n", range(3, 31))
    def test_data_proportional_to_the_weights(self, n):
        """W rounds to 1 or a few ulps either side of it; past 1,
        log(1 − W) is undefined and p reads 1, as scipy's does."""
        a = _shapiro_coefficients(n)
        weights = [-v for v in a] + [0.0] * (n % 2) + a[::-1]
        data = [3.0 + 7.0 * w for w in weights]
        ours = shapiro_wilk(data)
        theirs = scipy.stats.shapiro(data)
        assert ours.statistic == pytest.approx(theirs.statistic, rel=1e-8)
        assert theirs.pvalue == 1.0
        assert ours.p_value == pytest.approx(1.0, rel=1e-6)
        if ours.statistic >= 1:
            assert ours.p_value == 1.0

    def test_warns_above_5000(self):
        rng = random.Random(9)
        data = [rng.gauss(0, 1) for _ in range(5001)]
        with pytest.warns(UserWarning, match="n > 5000"):
            ours = shapiro_wilk(data)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            theirs = scipy.stats.shapiro(data)
        assert ours.statistic == pytest.approx(theirs.statistic, rel=1e-8)

    def test_canonical_normality_rows_print_as_with_scipy(self):
        """The six §7 normality rows, formatted as the reports print
        them, are the same whichever implementation computes them."""
        study = canonical_study()
        projects = study.projects
        attributes = {
            "sync_10": [p.sync10 for p in projects],
            "sync_5": [p.sync5 for p in projects],
            "attainment_75": [p.attainment(0.75) for p in projects],
            "duration_months": [float(p.duration_months) for p in projects],
            "schema_activity": [p.schema_total_activity for p in projects],
            "project_activity": [p.project_total_updates for p in projects],
        }
        normality = study.statistics().normality
        assert list(normality) == list(attributes)
        for name, values in attributes.items():
            ours = shapiro_wilk(values)
            assert ours == normality[name], name
            theirs = scipy.stats.shapiro(values)
            assert f"{ours.statistic:.3f} {ours.p_value:.2e}" == (
                f"{theirs.statistic:.3f} {theirs.pvalue:.2e}"
            ), name


class TestChi2Sf:
    @pytest.mark.parametrize("df", range(1, 31))
    def test_matches_scipy(self, df):
        """Agrees with scipy to 1e-12 relative up to x = 600, where the
        tail is ~1e-130 (measured: 6.8e-14)."""
        grid = [0.001, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
                200.0, 400.0, 600.0, df / 2, df, 2.0 * df]
        for x in grid:
            assert _chi2_sf(x, df) == pytest.approx(
                scipy.stats.chi2.sf(x, df), rel=1e-12, abs=0
            ), x

    @pytest.mark.parametrize("df", [1600, 1601])
    @pytest.mark.parametrize("x", [1200.0, 1600.0, 2000.0])
    def test_large_df_matches_scipy(self, x, df):
        """Past x ≈ 1490 the factor e^(−x/2) alone is 0.0, while the tail
        at x ≈ df is still ½ (measured: 2.7e-13 relative at most)."""
        assert _chi2_sf(x, df) == pytest.approx(
            scipy.stats.chi2.sf(x, df), rel=1e-11, abs=0
        )

    @pytest.mark.parametrize(
        "x, df", [(0.0, 1), (-1e-15, 1), (-3.0, 4), (float("inf"), 3),
                  (float("inf"), 4), (2000.0, 3), (5e-324, 2),
                  (10000.0, 20000)]
    )
    def test_edges_match_scipy(self, x, df):
        assert _chi2_sf(x, df) == scipy.stats.chi2.sf(x, df)

    @pytest.mark.parametrize("x, df", [(1.0, 0), (float("nan"), 3)])
    def test_undefined_is_nan(self, x, df):
        assert math.isnan(_chi2_sf(x, df))
        assert math.isnan(scipy.stats.chi2.sf(x, df))
