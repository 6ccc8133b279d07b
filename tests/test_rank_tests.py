import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from dea_mpss.errors import ValidationError
from dea_mpss.rank_tests import KwResult, average_ranks, chi_square_sf, kruskal_wallis


def test_average_ranks_examples():
    assert average_ranks([10, 20, 30]).tolist() == [1.0, 2.0, 3.0]
    assert average_ranks([5, 5, 7]).tolist() == [1.5, 1.5, 3.0]
    assert average_ranks([0, 0, 0, 0]).tolist() == [2.5, 2.5, 2.5, 2.5]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=40))
def test_rank_sum_property(values):
    n = len(values)
    assert average_ranks(values).sum() == pytest.approx(n * (n + 1) / 2)


def test_two_identical_groups():
    res = kruskal_wallis([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    assert res.h_statistic == pytest.approx(0.0, abs=1e-12)
    assert res.p_value == pytest.approx(1.0)
    assert res.degrees_of_freedom == 1


def test_all_tied_degenerate_case():
    res = kruskal_wallis([[5.0, 5.0], [5.0, 5.0, 5.0]])
    assert res == KwResult(0.0, 1, 1.0, True)


def test_frozen_reference_computation():
    # 5 groups of 20; expected values frozen from an independent reference run
    rng = np.random.default_rng(2718)
    groups = [np.round(rng.normal(loc=i * 0.1, scale=1.0, size=20), 6) for i in range(5)]
    res = kruskal_wallis(groups)
    assert res.h_statistic == pytest.approx(3.1297425742574205, abs=1e-6)
    assert res.p_value == pytest.approx(0.5363528725465038, abs=1e-6)
    assert res.degrees_of_freedom == 4


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=15),
             min_size=2, max_size=4),
)
def test_matches_scipy(groups):
    pooled = np.concatenate([np.asarray(g) for g in groups])
    if np.all(pooled == pooled[0]):
        return  # scipy raises on the all-tied degenerate case we define as H=0
    mine = kruskal_wallis(groups)
    h, p = scipy_stats.kruskal(*groups)
    assert mine.h_statistic == pytest.approx(h, abs=1e-9)
    assert mine.p_value == pytest.approx(p, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(0.01, 100, allow_nan=False), min_size=2, max_size=12),
    st.lists(st.floats(0.01, 100, allow_nan=False), min_size=2, max_size=12),
)
@example(a=[1.0, 1.0], b=[0.010000000000000002, 0.01])
def test_monotone_transform_invariance(a, b):
    # np.log is only weakly increasing in floating point: it can map two
    # distinct values to one, which creates a tie and legitimately changes H
    pooled = np.asarray(a + b)
    assume(np.unique(pooled).size == np.unique(np.log(pooled)).size)
    base = kruskal_wallis([a, b])
    mapped = kruskal_wallis([np.log(a).tolist(), np.log(b).tolist()])
    assert mapped.h_statistic == pytest.approx(base.h_statistic, abs=1e-9)
    assert mapped.p_value == pytest.approx(base.p_value, abs=1e-9)
    swapped = kruskal_wallis([b, a])
    assert swapped.h_statistic == pytest.approx(base.h_statistic, abs=1e-9)
    assert base.h_statistic >= 0.0


def test_permutation_within_group_invariance():
    rng = np.random.default_rng(8)
    a, b = rng.normal(size=15), rng.normal(size=12)
    base = kruskal_wallis([a, b])
    shuffled = kruskal_wallis([rng.permutation(a), rng.permutation(b)])
    assert shuffled == base


def test_tie_correction_flag():
    groups = [[1.0, 2.0, 2.0], [2.0, 3.0, 4.0]]
    corrected = kruskal_wallis(groups)
    plain = kruskal_wallis(groups, tie_correction=False)
    assert corrected.tie_corrected and not plain.tie_corrected
    assert corrected.h_statistic > plain.h_statistic  # ties shrink the divisor


def test_group_validation():
    with pytest.raises(ValidationError, match="two groups"):
        kruskal_wallis([[1.0, 2.0]])
    with pytest.raises(ValidationError, match="nonempty"):
        kruskal_wallis([[1.0], []])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_values_rejected(bad):
    # NaNs are not equal to each other, so they would rank apart yet count as one tie
    with pytest.raises(ValidationError, match="group 1 holds a non-finite value"):
        kruskal_wallis([[1.0, 2.0], [3.0, bad, 4.0]])
    with pytest.raises(ValidationError, match="finite"):
        average_ranks([1.0, bad, bad])


def test_chi_square_sf_examples():
    assert chi_square_sf(0.0, 1) == 1.0
    assert chi_square_sf(0.0, 7) == 1.0
    assert chi_square_sf(0.119, 1) == pytest.approx(0.7302, abs=1e-4)
    assert chi_square_sf(3.841, 1) == pytest.approx(0.05, abs=5e-4)


@pytest.mark.parametrize("x,df", [(0.119, 1), (0.294, 1), (5.5, 2), (13.4, 7), (80.0, 30), (1e-8, 3)])
def test_chi_square_sf_matches_scipy(x, df):
    assert chi_square_sf(x, df) == pytest.approx(scipy_stats.chi2.sf(x, df), abs=1e-10)


def test_chi_square_sf_validation():
    with pytest.raises(ValidationError):
        chi_square_sf(-0.1, 1)
    with pytest.raises(ValidationError):
        chi_square_sf(1.0, 0)
    with pytest.raises(ValidationError):
        chi_square_sf(1.0, 1.5)


def test_chi_square_sf_monotone_in_x():
    xs = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0]
    vals = [chi_square_sf(x, 3) for x in xs]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)
