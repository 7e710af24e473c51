import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gapfit.benchmarks import (BenchmarkKind, fit_linreg_locf, locf_impute,
                               predict_mean, predict_modified_mean)
from gapfit.errors import InsufficientDataError
from gapfit.evaluation import BenchmarkPredictor
from gapfit.model import Cohort

from conftest import linreg_lstsq, make_series


def imputed(values):
    """LOCF-imputed series; None entries in ``values`` mean 'not reported'."""
    return locf_impute([np.nan if v is None else v for v in values])


def linreg(y, z):
    """``fit_linreg_locf`` on one series: (coefficients, rank-deficient)."""
    coefs, deficient = fit_linreg_locf(imputed(y)[None],
                                       np.asarray(z, dtype=float)[None])
    return coefs[0], bool(deficient[0])


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


def test_locf_2d_equals_rows():
    rng = np.random.Generator(np.random.PCG64(17))
    y = rng.uniform(0.0, 50.0, (40, 25))
    y[rng.random(y.shape) < 0.6] = np.nan
    y[~np.isfinite(y).any(axis=1), 0] = 1.0
    y[3, :-1] = np.nan  # only the last day reported
    y[5] = 7.0  # fully reported
    both = locf_impute(y)
    for row, got in zip(y, both):
        np.testing.assert_array_equal(got, locf_impute(row))
    np.testing.assert_array_equal(locf_impute(y, np.isfinite(y)), both)
    y[1] = np.nan
    with pytest.raises(InsufficientDataError):
        locf_impute(y)


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
    cohort = Cohort.from_series([
        make_series([2, 3, 4], id="a"),
        make_series([2, None, 4], z=[0, 0, 0], id="b")])
    inc, _, ok = BenchmarkPredictor(BenchmarkKind.ZERO).predict_cohort(cohort)
    assert inc.tolist() == [0.0, 0.0] and ok.all()


def test_mean_model_anchor_value():
    assert predict_mean(imputed([2, 3, 3, 4])) == 0.5


def test_mean_model_on_imputed_series():
    # y=(2,.,4) imputes to (2,2,4); only the first increment counts.
    assert predict_mean(imputed([2, None, 4])) == 0.0


def test_mean_model_constant_series():
    assert predict_mean(imputed([5, 5, 5, 5])) == 0.0


def test_mean_model_needs_three_days():
    with pytest.raises(InsufficientDataError):
        predict_mean(imputed([2, 3]))


def test_modified_mean_case_split():
    # last pre-target imputed increment zero -> 0
    assert predict_modified_mean(imputed([2, 3, 3, None])) == 0.0
    # nonzero -> falls through to the mean model
    v = imputed([2, 3, 4, 6])
    assert predict_modified_mean(v) == predict_mean(v)


def test_modified_mean_exhaustive_small_cases():
    for vals in [(1, 2, 3, 4), (1, 1, 2, 2), (3, 2, 2, 5), (0, 0, 0, 0)]:
        v = imputed(vals)
        if v[-2] - v[-3] == 0.0:
            assert predict_modified_mean(v) == 0.0
        else:
            assert predict_modified_mean(v) == predict_mean(v)


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
    coefs, deficient = linreg(y, z)
    assert coefs == pytest.approx(true, abs=1e-10)
    assert not deficient


def test_linreg_flags_rank_deficiency():
    assert linreg([5, 5, 5, 5, 5], [2, 2, 2, 2, 2])[1]


def test_linreg_needs_four_days():
    with pytest.raises(InsufficientDataError):
        linreg([2, 3, 4], [1, 1, 1])


def test_linreg_is_least_squares_optimum():
    rng = np.random.Generator(np.random.PCG64(31))
    T = 20
    y = rng.uniform(1, 20, T)
    z = rng.uniform(0, 5, T)
    coefs, _ = linreg(y, z)
    X = np.column_stack([np.ones(T - 1), y[:-1], z[:-1]])
    target = np.diff(y)
    best = np.sum((X @ coefs - target) ** 2)
    for _ in range(50):
        probe = coefs + rng.normal(0, 0.05, 3)
        assert best <= np.sum((X @ probe - target) ** 2) + 1e-12


_DESIGNS = ("full", "gapped", "constant v", "constant z", "all zero")


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.one_of(st.just(4), st.integers(4, 40)),
       st.lists(st.sampled_from(_DESIGNS), min_size=1, max_size=6))
@example(0, 4, list(_DESIGNS))
def test_linreg_matches_per_row_lstsq(seed, T, designs):
    # coefficients to 1e-9 absolute and relative: the largest difference
    # seen over 3,000 such cohorts was 1.3e-11, on three-row designs
    rng = np.random.Generator(np.random.PCG64(seed))
    K = len(designs)
    y = 10.0 + np.cumsum(rng.uniform(-2.0, 5.0, (K, T)), axis=1)
    z = rng.uniform(0.0, 3.0, (K, T))
    for k, design in enumerate(designs):
        if design == "gapped":
            y[k, 1:][rng.random(T - 1) < 0.4] = np.nan
        elif design == "constant v":  # v_prev repeats the intercept column
            y[k, :-1] = y[k, 0]
        elif design == "constant z":
            z[k, :-1] = z[k, 0]
        elif design == "all zero":
            y[k], z[k] = 0.0, 0.0
    v = locf_impute(y)
    coefs, deficient = fit_linreg_locf(v, z)
    oracle, oracle_deficient = linreg_lstsq(v, z)
    np.testing.assert_allclose(coefs, oracle, rtol=1e-9, atol=1e-9)
    np.testing.assert_array_equal(deficient, oracle_deficient)
    for k, design in enumerate(designs):
        if design in ("constant v", "constant z", "all zero"):
            assert deficient[k]


def test_linreg_predict_increment():
    # the benchmark fits days 1..T-1 and steps once from the state on day T-1
    s = make_series([2, 3, None, 5, 4], z=[1, 2, 1, 3, 2])
    inc, prev, ok = BenchmarkPredictor(
        BenchmarkKind.LINREG_LOCF).predict_cohort(Cohort.from_series([s]))
    b1, b2, b3 = linreg(s.y[:-1], s.z[:-1])[0]
    assert ok[0] and prev[0] == 5.0
    assert inc[0] == pytest.approx(b1 + b2 * 5.0 + b3 * 3.0)
