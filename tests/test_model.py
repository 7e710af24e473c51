import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gapfit.benchmarks import fit_linreg_locf
from gapfit.errors import GapfitError, InsufficientDataError, UsageError
from gapfit.model import (Beta, HospitalSeries, _bridge, bridge_cohort,
                          expand_gap, loss, predict_last_increment,
                          predict_trajectory)

from conftest import make_series, random_gapped_series


# -- HospitalSeries invariants ----------------------------------------------

def test_series_validation():
    cases = [
        (InsufficientDataError, [1.0], [1.0]),  # T < 2
        (UsageError, [1.0, 2.0], [1.0]),  # length mismatch
        (UsageError, [1.0, 2.0], [1.0, np.nan]),  # z must be complete
        (UsageError, [1.0, 2.0], [1.0, -2.0]),  # z nonnegative
        (UsageError, [-1.0, 2.0], [1.0, 1.0]),  # y nonnegative
        (InsufficientDataError, [np.nan, np.nan], [1.0, 1.0]),  # no report
    ]
    for error, y, z in cases:
        with pytest.raises(GapfitError) as info:
            HospitalSeries("a", y, z)
        assert type(info.value) is error


def test_series_mask_derived_from_nan():
    s = make_series([2, None, 4])
    assert list(s.r) == [True, False, True]
    assert s.T == 3
    assert s.n_reports == 2


def test_window_is_a_copy():
    s = make_series([2, 3, 4, 5], z=[1, 2, 3, 4])
    w = s.window(2, 4)
    assert list(w.y) == [3, 4, 5]
    assert list(w.z) == [2, 3, 4]
    t = s.window(1, 2)
    assert list(t.y) == [2, 3]
    s.y[0] = 9.0
    assert t.y[0] == 2.0


# -- loss -------------------------------------------------------------------

def test_loss_anchor_value(anchor_series):
    assert loss(anchor_series, Beta()) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_loss_bridged_gap_exact_zero():
    # y=(2,.,4) with beta=(1,0,0): the carried state hits 3 and then 4.
    s = make_series([2, None, 4])
    assert loss(s, Beta(1.0, 0.0, 0.0)) == 0.0


def test_loss_skips_leading_missing():
    s = make_series([None, 2, 3])
    assert loss(s, Beta()) == 1.0


def test_loss_leading_missing_equals_truncation():
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(20):
        s = random_gapped_series(rng)
        y = s.y.copy()
        y_lead = np.concatenate([[np.nan, np.nan], y])
        z_lead = np.concatenate([s.z[:2], s.z])
        lead = HospitalSeries(s.id, y_lead, z_lead)
        beta = Beta(*rng.uniform(-0.3, 0.3, 3))
        assert loss(lead, beta) == pytest.approx(loss(s, beta), rel=1e-12)


def test_loss_single_report_raises():
    with pytest.raises(InsufficientDataError):
        loss(make_series([None, 5]), Beta())


def test_loss_ignores_values_at_masked_days():
    # Two underlying trajectories that agree on the reported days must give
    # the same loss after masking: the hidden values cannot leak.
    beta = Beta(0.3, -0.1, 0.05)
    mask = np.array([True, False, True, False, True])
    z = np.linspace(0.0, 2.0, 5)
    truth_a = np.array([2.0, 3.0, 4.0, 5.0, 6.0])
    truth_b = np.array([2.0, 99.0, 4.0, 0.5, 6.0])
    ya, yb = truth_a.copy(), truth_b.copy()
    ya[~mask] = np.nan
    yb[~mask] = np.nan
    assert loss(HospitalSeries("a", ya, z), beta) == \
        loss(HospitalSeries("b", yb, z), beta)


def test_loss_fully_observed_equals_ols_objective():
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(20):
        T = int(rng.integers(5, 20))
        y = rng.uniform(1, 20, T)
        z = rng.uniform(0, 4, T)
        s = HospitalSeries("o", y, z)
        beta = rng.uniform(-0.5, 0.5, 3)
        X = np.column_stack([np.ones(T - 1), y[:-1], z[:-1]])
        resid = X @ beta - np.diff(y)
        assert loss(s, beta) == pytest.approx(np.mean(resid ** 2), rel=1e-12)


# -- predict_trajectory -----------------------------------------------------

def test_trajectory_zero_beta_carries_constant():
    s = make_series([5, None, None, None, 7])
    traj = predict_trajectory(s, Beta())
    assert traj.y_tilde == [5.0, 5.0, 5.0, 5.0, 7.0]
    assert traj.dy_hat[1:] == [0.0, 0.0, 0.0, 0.0]


def test_trajectory_unit_increments():
    s = make_series([2, None, None])
    traj = predict_trajectory(s, Beta(1.0, 0.0, 0.0))
    assert traj.y_tilde == [2.0, 3.0, 4.0]


def test_trajectory_none_before_first_report():
    s = make_series([None, None, 3, 4])
    traj = predict_trajectory(s, Beta(0.5, 0.1, 0.0))
    assert traj.y_tilde[0] is None and traj.y_tilde[1] is None
    assert traj.dy_hat[0] is None and traj.dy_hat[1] is None
    assert traj.y_tilde[2] == 3.0


def test_trajectory_matches_reports_where_present():
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(20):
        s = random_gapped_series(rng)
        traj = predict_trajectory(s, Beta(*rng.uniform(-0.3, 0.3, 3)))
        for t in range(s.T):
            if s.r[t]:
                assert traj.y_tilde[t] == s.y[t]


# -- bridge_cohort ----------------------------------------------------------

def _bridge_rows(cohort, betas, T):
    """Reference: ``_bridge`` one series at a time, NaN-padded to (K, T)."""
    y_tilde = np.full((len(cohort), T), np.nan)
    dy_hat = np.full((len(cohort), T), np.nan)
    for k, (s, beta) in enumerate(zip(cohort, betas)):
        first, states, preds = _bridge(s, beta)
        y_tilde[k, first:s.T] = states
        dy_hat[k, first + 1:s.T] = preds
    return y_tilde, dy_hat


def _padded(cohort, T):
    y = np.full((len(cohort), T), np.nan)
    z = np.zeros((len(cohort), T))
    for k, s in enumerate(cohort):
        y[k, :s.T] = s.y
        z[k, :s.T] = s.z
    return y, np.isfinite(y), z


def test_bridge_cohort_matches_per_row_bridge():
    rng = np.random.Generator(np.random.PCG64(29))
    for trial in range(40):
        T = int(rng.integers(2, 30))
        cohort = []
        for k in range(int(rng.integers(1, 12))):
            # ragged: every other trial right-pads rows of random length
            n = int(rng.integers(2, T + 1)) if trial % 2 else T
            y = rng.uniform(0.0, 30.0, n)
            y[rng.random(n) < rng.uniform(0.0, 0.8)] = np.nan
            if k % 3 == 1:
                y[:int(rng.integers(1, n))] = np.nan  # leading unreported days
            if k % 3 == 2:
                y[n // 2:] = np.nan  # trailing gap
            if not np.isfinite(y).any():
                y[-1] = 1.0
            cohort.append(HospitalSeries(k, y, rng.uniform(0.0, 5.0, n)))
        betas = rng.uniform(-0.5, 0.5, (len(cohort), 3))
        betas[0, 1] = 1e3 if trial % 5 == 0 else betas[0, 1]  # overflows
        got = bridge_cohort(*_padded(cohort, T), betas)
        want = _bridge_rows(cohort, betas, T)
        for g, w in zip(got, want):
            lengths = np.array([s.T for s in cohort])
            own = np.arange(T) < lengths[:, None]
            np.testing.assert_array_equal(np.where(own, g, 0.0),
                                          np.where(own, w, 0.0))


def test_predict_trajectory_is_one_row_of_bridge_cohort():
    s = make_series([None, 4, None, None, 7, None], z=[1, 2, 3, 1, 2, 3])
    beta = Beta(0.3, -0.05, 0.2)
    traj = predict_trajectory(s, beta)
    y_tilde, dy_hat = bridge_cohort(s.y[None], s.r[None], s.z[None],
                                    [beta.as_array()])
    assert traj.y_tilde[0] is None and traj.dy_hat[:2] == [None, None]
    assert traj.y_tilde[1:] == y_tilde[0, 1:].tolist()
    assert traj.dy_hat[2:] == dy_hat[0, 2:].tolist()


# -- expand_gap oracle ------------------------------------------------------

def test_expand_gap_base_case():
    beta = Beta(0.2, -0.1, 0.4)
    assert expand_gap(10.0, [3.0], beta, 0) == pytest.approx(
        0.2 - 0.1 * 10.0 + 0.4 * 3.0)


def test_expand_gap_hand_trace():
    # beta=(1,0.5,0), anchor 2: first increment 1+0.5*2=2, state 4, next 3.
    beta = Beta(1.0, 0.5, 0.0)
    assert expand_gap(2.0, [0.0, 0.0], beta, 1) == pytest.approx(3.0)


def test_expand_gap_no_self_dependence():
    beta = Beta(0.7, 0.0, 0.3)
    z = [1.0, 2.0, 5.0]
    for anchor in (0.0, 4.0, 100.0):
        assert expand_gap(anchor, z, beta, 2) == pytest.approx(0.7 + 0.3 * 5.0)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=5),
       st.floats(min_value=0.1, max_value=30, allow_nan=False),
       st.lists(st.floats(min_value=-0.3, max_value=0.3, allow_nan=False),
                min_size=3, max_size=3))
def test_expand_gap_equals_recursion(gap_len, anchor, coefs):
    beta = Beta(*coefs)
    z = np.linspace(0.5, 2.0, gap_len + 1)
    y = [anchor] + [None] * gap_len + [anchor]
    s = make_series(y, z=np.concatenate([z, [z[-1]]]))
    traj = predict_trajectory(s, beta)
    # the increment predicted into the final day, after gap_len carried steps
    assert traj.dy_hat[-1] == pytest.approx(
        expand_gap(anchor, list(z), beta, gap_len), abs=1e-12, rel=1e-12)


# -- predict_last_increment -------------------------------------------------

def test_predict_last_increment_zero_beta():
    assert predict_last_increment(make_series([2, 3, 4]), Beta()) == 0.0


def test_predict_last_increment_intercept_only():
    s = make_series([2, 3, 4, 6])
    assert predict_last_increment(s, Beta(1.0, 0.0, 0.0)) == 1.0


def test_predict_last_increment_requires_two_reports_before_T():
    with pytest.raises(InsufficientDataError):
        predict_last_increment(make_series([2, None, 4]), Beta())


def test_predict_last_increment_consistent_with_trajectory():
    rng = np.random.Generator(np.random.PCG64(21))
    for _ in range(20):
        s = random_gapped_series(rng, T=12)
        if s.window(1, s.T - 1).n_reports < 2:
            continue
        beta = Beta(*rng.uniform(-0.3, 0.3, 3))
        inc = predict_last_increment(s, beta)
        traj = predict_trajectory(s.window(1, s.T - 1), beta)
        prev = traj.y_tilde[-1]
        assert inc == pytest.approx(
            beta.b1 + beta.b2 * prev + beta.b3 * s.z[s.T - 2], rel=1e-12)


def test_loss_vs_linreg_same_objective_fully_observed():
    # On fully observed data the increment loss and the OLS residual mean
    # square of the imputation-free regression agree at the OLS solution.
    rng = np.random.Generator(np.random.PCG64(9))
    T = 30
    y = rng.uniform(2, 25, T)
    z = rng.uniform(0, 5, T)
    s = HospitalSeries("x", y, z)
    fitres = fit_linreg_locf(s)
    X = np.column_stack([np.ones(T - 1), y[:-1], z[:-1]])
    resid = X @ fitres.beta.as_array() - np.diff(y)
    assert loss(s, fitres.beta) == pytest.approx(np.mean(resid ** 2), abs=1e-12)
