import numpy as np
import pytest
from hypothesis import given, strategies as st

from gapfit.benchmarks import (BenchmarkKind, fit_linreg_locf, locf_impute,
                               predict_mean, predict_modified_mean,
                               predict_zero)
from gapfit.errors import InsufficientDataError

from conftest import make_series


def test_kind_enumeration_closed():
    assert {k.value for k in BenchmarkKind} == {
        "zero", "mean", "modified_mean", "linreg_locf"}


# -- locf_impute ------------------------------------------------------------

def test_locf_basic():
    np.testing.assert_array_equal(
        locf_impute([2.0, np.nan, 4.0]), [2.0, 2.0, 4.0])


def test_locf_backfills_leading_missing():
    np.testing.assert_array_equal(
        locf_impute([np.nan, 3.0, np.nan, np.nan]), [3.0, 3.0, 3.0, 3.0])


def test_locf_identity_on_complete_series():
    y = np.array([1.0, 5.0, 2.0])
    np.testing.assert_array_equal(locf_impute(y), y)


def test_locf_all_missing_raises():
    with pytest.raises(InsufficientDataError):
        locf_impute([np.nan, np.nan])


@given(st.lists(st.one_of(st.none(),
                          st.floats(min_value=0, max_value=100,
                                    allow_nan=False)),
                min_size=2, max_size=12).filter(
                    lambda v: any(x is not None for x in v)))
def test_locf_idempotent(values):
    y = np.array([np.nan if v is None else v for v in values])
    once = locf_impute(y)
    np.testing.assert_array_equal(locf_impute(once), once)
    # reference: walk the days, carrying the latest report (the first one
    # before it); the vectorized gather must copy exactly these values
    last = y[np.isfinite(y)][0]
    expected = []
    for v in y:
        last = v if np.isfinite(v) else last
        expected.append(last)
    assert once.tobytes() == np.array(expected).tobytes()


# -- zero / mean / modified mean --------------------------------------------

def test_zero_model_always_zero():
    assert predict_zero(make_series([2, 3, 4])) == 0.0
    assert predict_zero(make_series([2, None, 4], z=[0, 0, 0])) == 0.0


def test_mean_model_anchor_value():
    assert predict_mean(make_series([2, 3, 3, 4])) == 0.5


def test_mean_model_on_imputed_series():
    # y=(2,.,4) imputes to (2,2,4); only the first increment counts.
    assert predict_mean(make_series([2, None, 4])) == 0.0


def test_mean_model_constant_series():
    assert predict_mean(make_series([5, 5, 5, 5])) == 0.0


def test_mean_model_needs_three_days():
    with pytest.raises(InsufficientDataError):
        predict_mean(make_series([2, 3]))


def test_modified_mean_case_split():
    # last pre-target imputed increment zero -> 0
    assert predict_modified_mean(make_series([2, 3, 3, None])) == 0.0
    # nonzero -> falls through to the mean model
    s = make_series([2, 3, 4, 6])
    assert predict_modified_mean(s) == predict_mean(s)


def test_modified_mean_exhaustive_small_cases():
    for vals in [(1, 2, 3, 4), (1, 1, 2, 2), (3, 2, 2, 5), (0, 0, 0, 0)]:
        s = make_series(vals)
        v = locf_impute(np.asarray(vals, dtype=float))
        if v[-2] - v[-3] == 0.0:
            assert predict_modified_mean(s) == 0.0
        else:
            assert predict_modified_mean(s) == predict_mean(s)


# -- linear regression on LOCF data -----------------------------------------

def test_linreg_recovers_exact_linear_data():
    true = np.array([0.5, 0.1, -0.2])
    T = 25
    rng = np.random.Generator(np.random.PCG64(2))
    z = rng.uniform(0, 4, T)
    y = np.empty(T)
    y[0] = 10.0
    for t in range(1, T):
        y[t] = y[t - 1] + true[0] + true[1] * y[t - 1] + true[2] * z[t - 1]
    fitres = fit_linreg_locf(make_series(y, z=z))
    assert fitres.beta.as_array() == pytest.approx(true, abs=1e-10)
    assert not fitres.rank_deficient


def test_linreg_flags_rank_deficiency():
    fitres = fit_linreg_locf(make_series([5, 5, 5, 5, 5], z=[2, 2, 2, 2, 2]))
    assert fitres.rank_deficient


def test_linreg_needs_four_days():
    with pytest.raises(InsufficientDataError):
        fit_linreg_locf(make_series([2, 3, 4]))


def test_linreg_is_least_squares_optimum():
    rng = np.random.Generator(np.random.PCG64(31))
    T = 20
    y = rng.uniform(1, 20, T)
    z = rng.uniform(0, 5, T)
    s = make_series(y, z=z)
    fitres = fit_linreg_locf(s)
    X = np.column_stack([np.ones(T - 1), y[:-1], z[:-1]])
    target = np.diff(y)
    best = np.sum((X @ fitres.beta.as_array() - target) ** 2)
    for _ in range(50):
        probe = fitres.beta.as_array() + rng.normal(0, 0.05, 3)
        assert best <= np.sum((X @ probe - target) ** 2) + 1e-12


def test_linreg_predict_increment():
    fitres = fit_linreg_locf(make_series([2, 3, 4, 5]))
    assert fitres.predict_increment(5.0, 1.0) == pytest.approx(
        fitres.beta.b1 + fitres.beta.b2 * 5.0 + fitres.beta.b3 * 1.0)
