"""Unit tests for χ² and the from-scratch r×c Fisher exact test."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.stats import chi_square, fisher_exact_rxc
from repro.stats.contingency import (
    _MC_CHUNK,
    _log_factorials,
    _monte_carlo_p,
    _monte_carlo_p_reference,
)


class TestChiSquare:
    def test_matches_scipy(self):
        table = [[10, 20], [20, 10], [5, 25]]
        ours = chi_square(table)
        theirs = scipy.stats.chi2_contingency(table, correction=False)
        assert ours.statistic == pytest.approx(theirs.statistic, rel=1e-9)
        assert ours.p_value == pytest.approx(theirs.pvalue, rel=1e-6)

    def test_independent_table_not_significant(self):
        assert chi_square([[10, 10], [20, 20]]).p_value > 0.9

    def test_dependent_table_significant(self):
        assert chi_square([[30, 0], [0, 30]]).p_value < 1e-10

    def test_df_in_details(self):
        result = chi_square([[1, 2, 3], [4, 5, 6], [7, 8, 9], [1, 1, 1]])
        assert result.details["df"] == 6

    def test_zero_margin_rejected(self):
        with pytest.raises(ValueError):
            chi_square([[0, 0], [1, 2]])

    def test_negative_cell_rejected(self):
        with pytest.raises(ValueError):
            chi_square([[1, -1], [2, 3]])

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            chi_square([[1, 2], [3]])


class TestFisherExact2x2:
    """The 2×2 case must agree with scipy's two-sided fisher_exact."""

    @pytest.mark.parametrize(
        "table",
        [
            [[3, 7], [8, 2]],
            [[1, 9], [9, 1]],
            [[5, 5], [5, 5]],
            [[12, 3], [4, 11]],
            [[0, 10], [10, 0]],
            [[2, 0], [1, 7]],
        ],
    )
    def test_matches_scipy(self, table):
        ours = fisher_exact_rxc(table)
        _, p = scipy.stats.fisher_exact(table, alternative="two-sided")
        assert ours.details["method"] == "exact"
        assert ours.p_value == pytest.approx(p, rel=1e-9)


class TestFisherExactRxC:
    def test_exact_3x2(self):
        # Freeman–Halton on a small 3x2 table; sanity: perfect dependence
        # on a diagonal-ish pattern must be significant
        result = fisher_exact_rxc([[8, 0], [0, 8], [4, 4]])
        assert result.details["method"] == "exact"
        assert result.p_value < 0.01

    def test_independent_rxc_not_significant(self):
        result = fisher_exact_rxc([[5, 5], [6, 6], [4, 4]])
        assert result.p_value > 0.5

    def test_p_value_bounded(self):
        result = fisher_exact_rxc([[2, 2], [2, 2]])
        assert 0 < result.p_value <= 1

    def test_zero_rows_and_columns_dropped(self):
        with_zero = fisher_exact_rxc([[3, 7, 0], [8, 2, 0], [0, 0, 0]])
        without = fisher_exact_rxc([[3, 7], [8, 2]])
        assert with_zero.p_value == pytest.approx(without.p_value)

    def test_degenerate_after_dropping_rejected(self):
        with pytest.raises(ValueError):
            fisher_exact_rxc([[5, 0], [3, 0]])

    def test_monte_carlo_agrees_with_exact(self):
        table = [[6, 2], [3, 7], [2, 6]]
        exact = fisher_exact_rxc(table)
        monte = fisher_exact_rxc(
            table, max_exact_tables=1, monte_carlo_samples=60_000
        )
        assert exact.details["method"] == "exact"
        assert monte.details["method"] == "monte_carlo"
        assert monte.p_value == pytest.approx(exact.p_value, abs=0.02)

    def test_monte_carlo_deterministic_via_seed(self):
        table = [[6, 2], [3, 7], [2, 6]]
        a = fisher_exact_rxc(table, max_exact_tables=1, seed=42)
        b = fisher_exact_rxc(table, max_exact_tables=1, seed=42)
        assert a.p_value == b.p_value

    def test_taxon_sized_table_uses_monte_carlo(self):
        # the study's 6x2 tables (195 projects) have ~12.6M candidate
        # tables, so the Monte Carlo path handles them — quickly and
        # deterministically
        table = [[24, 9], [30, 32], [16, 9], [11, 24], [7, 11], [2, 20]]
        result = fisher_exact_rxc(table)
        assert result.details["method"] == "monte_carlo"
        assert result.p_value < 0.05  # clearly taxon-dependent pattern


class TestMonteCarloPinned:
    """The canonical study's three lag tables, pinned to the last float.

    The sampler is seeded, so the same draws must give the same hit
    count: a change to how the log-probabilities are computed that
    moves any float moves these p-values.
    """

    @pytest.mark.parametrize(
        "table, p_value",
        [
            # time lag
            ([[18, 15], [26, 36], [17, 12], [22, 19], [7, 3], [3, 17]],
             0.013244933775331123),
            # source lag
            ([[18, 15], [15, 47], [18, 11], [14, 27], [4, 6], [2, 18]],
             0.00023999880000599998),
            # both
            ([[18, 15], [15, 47], [14, 15], [14, 27], [4, 6], [2, 18]],
             0.004114979425102874),
        ],
    )
    def test_canonical_lag_tables(self, table, p_value):
        result = fisher_exact_rxc(table)
        assert result.details["method"] == "monte_carlo"
        assert result.p_value == p_value


@st.composite
def _tables(draw):
    """2–6 × 2–4 tables drawn near independence, with zero cells.

    Counts land in cells by row and column weights, so the observed
    table is a typical one and its p-value is seldom 1 or
    1/(samples + 1).  With few counts and uneven weights many cells
    stay zero, and small rows run out before their last column, so the
    sampler's ``left == 0`` masks apply.  A zero-sum row or column gets
    one count: every margin is positive, as in the tables
    ``fisher_exact_rxc`` samples.
    """
    n_rows = draw(st.integers(2, 6))
    n_cols = draw(st.integers(2, 4))
    weights = st.integers(1, 6)
    row_weights = draw(st.lists(weights, min_size=n_rows, max_size=n_rows))
    col_weights = draw(st.lists(weights, min_size=n_cols, max_size=n_cols))
    rng = draw(st.randoms(use_true_random=False))
    table = [[0] * n_cols for _ in range(n_rows)]
    for _ in range(draw(st.integers(n_rows + n_cols, 80))):
        [i] = rng.choices(range(n_rows), row_weights)
        [j] = rng.choices(range(n_cols), col_weights)
        table[i][j] += 1
    for i, row in enumerate(table):
        if not sum(row):
            row[i % n_cols] = 1
    for j in range(n_cols):
        if not sum(row[j] for row in table):
            table[j % n_rows][j] = 1
    return table


def _sampler_arguments(table, samples, seed):
    row_sums = [sum(row) for row in table]
    col_sums = [sum(col) for col in zip(*table)]
    total = sum(row_sums)
    log_fact = _log_factorials(total)
    log_margin = (
        sum(log_fact[s] for s in row_sums)
        + sum(log_fact[s] for s in col_sums)
        - log_fact[total]
    )
    observed_log_p = log_margin - sum(
        log_fact[c] for row in table for c in row
    )
    return (row_sums, col_sums, log_fact, log_margin, observed_log_p,
            samples, seed)


class TestMonteCarloStreaming:
    """The chunked sampler is the all-at-once reference, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        table=_tables(),
        samples=st.sampled_from([
            1, _MC_CHUNK - 1, _MC_CHUNK, _MC_CHUNK + 1, 3 * _MC_CHUNK + 7,
        ]),
        seed=st.integers(0, 2**32 - 1),
    )
    # totals past 2**15 and 2**16: a counter type chosen too narrow wraps
    @example(table=[[9_000, 7_400], [9_300, 7_200]],
             samples=_MC_CHUNK + 1, seed=7)
    @example(table=[[12_000, 9_000, 3_000], [11_000, 8_300, 2_700],
                    [12_500, 9_300, 3_200]],
             samples=_MC_CHUNK + 1, seed=11)
    # nine columns: numpy sums the forced last row pairwise past seven
    @example(table=[[3, 0, 1, 4, 0, 2, 5, 1, 2], [1, 2, 0, 0, 3, 1, 0, 4, 2],
                    [0, 1, 6, 2, 1, 0, 1, 0, 3]],
             samples=2 * _MC_CHUNK + 3, seed=20230331)
    def test_matches_the_reference(self, table, samples, seed):
        arguments = _sampler_arguments(table, samples, seed)
        assert _monte_carlo_p(*arguments) == _monte_carlo_p_reference(
            *arguments
        )

    def test_canonical_lag_table_peaks_under_4_mib(self):
        # the all-at-once reference peaks at 15.7 MiB here
        table = [[18, 15], [26, 36], [17, 12], [22, 19], [7, 3], [3, 17]]
        tracemalloc.start()
        try:
            result = fisher_exact_rxc(table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.details["method"] == "monte_carlo"
        assert peak <= 4 * 2**20


def _brute_force_fisher(table: list[list[int]]) -> tuple[Fraction, Fraction]:
    """(observed table probability, two-sided p) by full enumeration.

    Every free cell of the top-left (r−1)×(c−1) block ranges over
    ``0..min(row, column)``; the last row and column follow from the
    margins, and a table is kept when none of its cells is negative.
    Probabilities are exact rationals.
    """
    row_sums = [sum(row) for row in table]
    col_sums = [sum(col) for col in zip(*table)]
    n_rows, n_cols = len(row_sums), len(col_sums)
    margins = math.prod(math.factorial(s) for s in row_sums + col_sums)
    total = math.factorial(sum(row_sums))

    def probability(cells: list[list[int]]) -> Fraction:
        return Fraction(
            margins,
            total * math.prod(math.factorial(c) for row in cells for c in row),
        )

    ranges = [
        range(min(row_sums[i], col_sums[j]) + 1)
        for i in range(n_rows - 1)
        for j in range(n_cols - 1)
    ]
    probabilities = []
    for free in itertools.product(*ranges):
        cells = [
            list(free[i * (n_cols - 1):(i + 1) * (n_cols - 1)])
            for i in range(n_rows - 1)
        ]
        for i, row in enumerate(cells):
            row.append(row_sums[i] - sum(row))
        cells.append(
            [col_sums[j] - sum(row[j] for row in cells)
             for j in range(n_cols)]
        )
        if min(min(row) for row in cells) < 0:
            continue
        probabilities.append(probability(cells))
    assert sum(probabilities) == 1
    observed = probability(table)
    return observed, sum(p for p in probabilities if p <= observed)


def _random_tables(shape: tuple[int, int], count: int, seed: int):
    rng = random.Random(seed)
    n_rows, n_cols = shape
    tables = []
    while len(tables) < count:
        n = rng.randint(n_rows * n_cols, 15)
        cells = [0] * (n_rows * n_cols)
        for _ in range(n):
            cells[rng.randrange(len(cells))] += 1
        table = [cells[i * n_cols:(i + 1) * n_cols] for i in range(n_rows)]
        if all(sum(row) for row in table) and all(
            sum(col) for col in zip(*table)
        ):
            tables.append(table)
    return tables


class TestExactAgainstEnumeration:
    """The exact path equals brute-force enumeration on small r×c tables."""

    @pytest.mark.parametrize(
        "table",
        [
            [[3, 1, 0], [1, 4, 1], [0, 1, 4]],
            [[2, 2, 1], [2, 1, 2], [1, 2, 2]],
            [[5, 0, 0], [0, 5, 0], [0, 0, 5]],
            [[1, 2, 3, 1], [4, 1, 0, 3]],
            [[2, 2, 2, 2], [2, 2, 2, 1]],
            [[6, 1], [1, 3], [0, 2], [1, 1]],
            [[1, 3], [2, 2], [3, 1], [3, 0]],
            *_random_tables((3, 3), 8, seed=3),
            *_random_tables((2, 4), 8, seed=24),
            *_random_tables((4, 2), 8, seed=42),
        ],
    )
    def test_matches_enumeration(self, table):
        assert sum(map(sum, table)) <= 15
        observed, p_value = _brute_force_fisher(table)
        result = fisher_exact_rxc(table)
        assert result.details["method"] == "exact"
        assert result.p_value == pytest.approx(float(p_value), abs=1e-12)
        assert result.statistic == pytest.approx(float(observed), abs=1e-12)
