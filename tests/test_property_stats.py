"""Property-based tests for the statistical substrate."""

import math
import random

from hypothesis import example, given, settings, strategies as st

from repro.coevolution import cross_correlation
from repro.heartbeat import Heartbeat, Month
from repro.stats import (
    Observation,
    bootstrap,
    kaplan_meier,
    median,
    rank_with_ties,
    share_interval,
)


@st.composite
def observation_sets(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    return [
        Observation(
            time=draw(st.floats(min_value=0, max_value=100,
                                allow_nan=False)),
            event=draw(st.booleans()),
        )
        for _ in range(n)
    ]


class TestKaplanMeierProperties:
    @settings(max_examples=80, deadline=None)
    @given(observation_sets())
    def test_survival_is_a_valid_step_function(self, observations):
        curve = kaplan_meier(observations)
        values = [p.survival for p in curve.points]
        assert all(0 <= v <= 1 + 1e-12 for v in values)
        assert values == sorted(values, reverse=True)

    @settings(max_examples=80, deadline=None)
    @given(observation_sets())
    def test_survival_at_is_monotone_nonincreasing(self, observations):
        curve = kaplan_meier(observations)
        probes = [0, 1, 5, 20, 50, 100, 1000]
        sampled = [curve.survival_at(t) for t in probes]
        assert sampled == sorted(sampled, reverse=True)
        assert curve.survival_at(-1) == 1.0

    @settings(max_examples=50, deadline=None)
    @given(observation_sets())
    def test_all_events_drive_survival_to_zero(self, observations):
        forced = [Observation(o.time, True) for o in observations]
        curve = kaplan_meier(forced)
        latest = max(o.time for o in forced)
        assert curve.survival_at(latest) == 0.0


class TestBootstrapProperties:
    flags = st.lists(st.booleans(), min_size=2, max_size=100)

    @settings(max_examples=50, deadline=None)
    @given(flags)
    def test_interval_brackets_estimate(self, flags):
        interval = share_interval(flags, replicates=200)
        assert interval.low <= interval.estimate <= interval.high
        assert 0 <= interval.low
        assert interval.high <= 1

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=60,
        )
    )
    def test_median_interval_within_sample_range(self, values):
        interval = bootstrap(values, median, replicates=200)
        assert min(values) <= interval.low
        assert interval.high <= max(values)


class TestCrossCorrelationProperties:
    series = st.lists(
        st.floats(min_value=0, max_value=100, allow_nan=False),
        min_size=4,
        max_size=30,
    )

    @settings(max_examples=60, deadline=None)
    @given(series, series, st.integers(min_value=0, max_value=5))
    # the variances are nonzero but their product underflows to 0.0
    @example(a=[0.0, 0.0, 0.0, 1.2625048951278895e-144],
             b=[0.0, 0.0, 0.0, 1.2625048951278895e-144], max_lag=0)
    def test_correlations_bounded(self, a, b, max_lag):
        n = max(len(a), len(b))
        hb_a = Heartbeat(Month(2019, 1), a + [0.0] * (n - len(a)))
        hb_b = Heartbeat(Month(2019, 1), b + [0.0] * (n - len(b)))
        profile = cross_correlation(hb_a, hb_b, max_lag=max_lag)
        assert all(-1 - 1e-9 <= c <= 1 + 1e-9 for c in profile.correlations)
        assert len(profile.lags) == 2 * max_lag + 1

    @settings(max_examples=60, deadline=None)
    @given(series, series)
    def test_mirror_symmetry(self, a, b):
        """corr(a, b) at lag k equals corr(b, a) at lag -k."""
        n = max(len(a), len(b))
        hb_a = Heartbeat(Month(2019, 1), a + [0.0] * (n - len(a)))
        hb_b = Heartbeat(Month(2019, 1), b + [0.0] * (n - len(b)))
        forward = cross_correlation(hb_a, hb_b, max_lag=3)
        backward = cross_correlation(hb_b, hb_a, max_lag=3)
        for lag in forward.lags:
            assert math.isclose(
                forward.correlation_at(lag),
                backward.correlation_at(-lag),
                abs_tol=1e-9,
            )


class TestRankProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    def test_rank_sum_invariant(self, values):
        """Average ranks always sum to n(n+1)/2, ties or not."""
        ranks = rank_with_ties(values)
        n = len(values)
        assert sum(ranks) == (n * (n + 1)) / 2

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    def test_ranks_respect_order(self, values):
        ranks = rank_with_ties(values)
        for i in range(len(values)):
            for j in range(len(values)):
                if values[i] < values[j]:
                    assert ranks[i] < ranks[j]
                elif values[i] == values[j]:
                    assert ranks[i] == ranks[j]
