"""Tests for repro.util.stats."""

import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.stats import (
    OnlineMoments,
    ccdf_from_pmf,
    dense_pmf,
    empirical_pmf,
    histogram,
    mean_of_pmf,
    normalize_counts,
    quantile,
    total_variation,
)


class TestOnlineMoments:
    def test_empty_raises(self):
        moments = OnlineMoments()
        with pytest.raises(ValueError):
            _ = moments.mean

    def test_single_value(self):
        moments = OnlineMoments()
        moments.add(3.0)
        assert moments.mean == 3.0
        assert moments.count == 1
        with pytest.raises(ValueError):
            _ = moments.variance

    def test_matches_statistics_module(self):
        data = [1.5, 2.5, -3.0, 4.25, 0.0, 10.0]
        moments = OnlineMoments()
        moments.update(data)
        assert moments.mean == pytest.approx(statistics.mean(data))
        assert moments.variance == pytest.approx(statistics.variance(data))
        assert moments.std == pytest.approx(statistics.stdev(data))

    def test_population_variance(self):
        data = [1.0, 2.0, 3.0]
        moments = OnlineMoments()
        moments.update(data)
        assert moments.population_variance == pytest.approx(
            statistics.pvariance(data)
        )

    def test_mean_squared_about(self):
        moments = OnlineMoments()
        moments.update([1.0, 3.0])
        # E[(X-2)^2] = ((1-2)^2 + (3-2)^2)/2 = 1
        assert moments.mean_squared_about(2.0) == pytest.approx(1.0)

    def test_merge(self):
        left = OnlineMoments()
        right = OnlineMoments()
        data = [1.0, 5.0, -2.0, 8.0, 3.5]
        left.update(data[:2])
        right.update(data[2:])
        merged = left.merge(right)
        assert merged.count == 5
        assert merged.mean == pytest.approx(statistics.mean(data))
        assert merged.variance == pytest.approx(statistics.variance(data))

    def test_merge_with_empty(self):
        left = OnlineMoments()
        left.update([1.0, 2.0])
        merged = left.merge(OnlineMoments())
        assert merged.count == 2
        assert merged.mean == pytest.approx(1.5)


class TestDistributions:
    def test_normalize_counts(self):
        pmf = normalize_counts({1: 2, 2: 6})
        assert pmf == {1: 0.25, 2: 0.75}

    def test_normalize_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize_counts({})

    def test_empirical_pmf(self):
        pmf = empirical_pmf([1, 1, 2, 3])
        assert pmf[1] == pytest.approx(0.5)
        assert pmf[2] == pytest.approx(0.25)

    def test_empirical_pmf_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_pmf([])

    def test_ccdf_strictly_greater(self):
        # gamma_l = P(X > l), the paper's definition.
        ccdf = ccdf_from_pmf({0: 0.5, 1: 0.3, 2: 0.2})
        assert ccdf[0] == pytest.approx(0.5)
        assert ccdf[1] == pytest.approx(0.2)
        assert ccdf[2] == pytest.approx(0.0)

    def test_ccdf_gaps_in_support(self):
        ccdf = ccdf_from_pmf({1: 0.5, 5: 0.5})
        assert ccdf[1] == pytest.approx(0.5)
        assert ccdf[5] == pytest.approx(0.0)

    def test_ccdf_empty_rejected(self):
        with pytest.raises(ValueError):
            ccdf_from_pmf({})

    def test_dense_pmf_zero_fills_from_zero(self):
        assert dense_pmf({3: 0.25, 1: 0.75}) == {
            0: 0.0, 1: 0.75, 2: 0.0, 3: 0.25
        }

    def test_dense_pmf_empty_rejected(self):
        with pytest.raises(ValueError):
            dense_pmf({})

    def test_total_variation(self):
        p = {0: 0.5, 1: 0.5}
        q = {0: 1.0}
        assert total_variation(p, q) == pytest.approx(0.5)

    def test_total_variation_identical(self):
        p = {0: 0.3, 2: 0.7}
        assert total_variation(p, p) == 0.0

    def test_mean_of_pmf(self):
        assert mean_of_pmf({1: 0.5, 3: 0.5}) == pytest.approx(2.0)


class TestQuantile:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)

    def test_median(self):
        assert quantile([1.0, 2.0, 3.0], 0.5) == 2.0

    def test_interpolation(self):
        assert quantile([0.0, 10.0], 0.25) == pytest.approx(2.5)

    def test_extremes(self):
        data = [1.0, 5.0, 9.0]
        assert quantile(data, 0.0) == 1.0
        assert quantile(data, 1.0) == 9.0


class TestHistogram:
    def test_basic(self):
        counts = histogram([0.5, 1.5, 1.7, 2.5], [0, 1, 2, 3])
        assert counts == [1, 2, 1]

    def test_out_of_range_ignored(self):
        counts = histogram([-1.0, 5.0], [0, 1])
        assert counts == [0]

    def test_too_few_edges_rejected(self):
        with pytest.raises(ValueError):
            histogram([1.0], [0])


@given(
    values=st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        min_size=2,
        max_size=60,
    )
)
@settings(max_examples=100)
def test_online_moments_match_naive(values):
    moments = OnlineMoments()
    moments.update(values)
    assert moments.mean == pytest.approx(statistics.mean(values), abs=1e-7)
    assert moments.variance == pytest.approx(
        statistics.variance(values), abs=1e-6
    )


@given(
    pmf_weights=st.lists(
        st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=20
    )
)
@settings(max_examples=100)
def test_ccdf_is_monotone_and_bounded(pmf_weights):
    total = sum(pmf_weights)
    pmf = {i: w / total for i, w in enumerate(pmf_weights)}
    ccdf = ccdf_from_pmf(pmf)
    keys = sorted(ccdf)
    values = [ccdf[k] for k in keys]
    assert all(values[i] >= values[i + 1] - 1e-12 for i in range(len(values) - 1))
    assert all(-1e-12 <= v <= 1.0 + 1e-12 for v in values)
    assert ccdf[keys[-1]] == pytest.approx(0.0, abs=1e-12)
