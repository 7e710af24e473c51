import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gapfit import autodiff
from gapfit.benchmarks import fit_linreg_locf
from gapfit.errors import GapfitError, InsufficientDataError, UsageError
from gapfit.evaluation import IncrementPredictor
from gapfit.model import Beta, Cohort, HospitalSeries, loss, predict_trajectory
from gapfit.optimizer import FitConfig

from conftest import expand_gap, make_series, random_gapped_series


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


# -- Cohort invariants ------------------------------------------------------

def test_cohort_validation():
    # the checks of test_series_validation, on the second row of a cohort
    cases = [
        (InsufficientDataError, [1.0], [1.0]),  # T < 2
        (UsageError, [1.0, 2.0], [1.0, np.nan]),  # z must be complete
        (UsageError, [1.0, 2.0], [1.0, -2.0]),  # z nonnegative
        (UsageError, [-1.0, 2.0], [1.0, 1.0]),  # y nonnegative
        (InsufficientDataError, [np.nan, np.nan], [1.0, 1.0]),  # no report
    ]
    for error, y, z in cases:
        n = len(y)
        with pytest.raises(GapfitError, match="'b'") as info:
            Cohort(["a", "b"], [[1.0, 2.0], y + [5.0] * (2 - n)],
                   [[1.0, 1.0], z + [1.0] * (2 - n)], days=[2, n])
        assert type(info.value) is error
    for y, z, days in [([[1.0, 2.0]], [[1.0]], None),  # shape mismatch
                       ([1.0, 2.0], [1.0, 1.0], None),  # not (K, T)
                       ([[1.0, 2.0]], [[1.0, 1.0]], [3]),  # past y's days
                       ([[1.0, 2.0]], [[1.0, 1.0]], [2, 2])]:  # one per row
        with pytest.raises(UsageError):
            Cohort(["a"], y, z, days)


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_infinite_report_is_a_usage_error_naming_the_row(value):
    # an infinite count is not a missing report: it must not be dropped
    y = [1.0, value, 2.0, 3.0]
    with pytest.raises(UsageError,
                       match="reported case counts must be finite: 'a'"):
        HospitalSeries("a", y, [1.0] * 4)
    with pytest.raises(UsageError,
                       match="reported case counts must be finite: 'b'"):
        Cohort(["a", "b"], [[1.0, 2.0, 3.0, 4.0], y], np.ones((2, 4)))


def test_cohort_pads_and_returns_rows_as_series():
    a = make_series([2, None, 4], z=[1, 2, 3], id="a")
    b = make_series([None, 5, 6, 8, None], z=[4, 3, 2, 1, 0.5], id="b")
    c = Cohort.from_series([a, b])
    assert c.ids == ("a", "b") and len(c) == 2
    assert c.days.tolist() == [3, 5]
    assert c.y.shape == c.z.shape == c.r.shape == (2, 5)
    # right-padded with NaN reports and zero incidence
    assert np.isnan(c.y[0, 3:]).all() and c.z[0, 3:].tolist() == [0.0, 0.0]
    assert c.n_reports.tolist() == [2, 3]
    for s, row in zip((a, b), c):
        assert isinstance(row, HospitalSeries) and row.id == s.id
        assert row.y.tobytes() == s.y.tobytes()
        assert row.z.tobytes() == s.z.tobytes()
    assert c[-1].id == "b"
    with pytest.raises(IndexError):
        c[2]
    with pytest.raises(ValueError):
        c.y[0, 0] = 1.0  # read-only
    # values past a row's days are not part of it
    d = Cohort(["a"], [[1.0, 2.0, -3.0]], [[1.0, 1.0, np.inf]], days=[2])
    assert d.y.shape == (1, 2) and d.days.tolist() == [2]


def test_cohort_T_names_the_first_row_of_another_length():
    c = Cohort.from_series([make_series([1, 2, 3, 4, 5], id="a"),
                            make_series([1, 2, 3, 4, 5, 6], id="b"),
                            make_series([1, 2, 3, 4, 5, 6], id="c")])
    with pytest.raises(UsageError, match="'b' has 6 days, 'a' has 5"):
        c.T
    assert c.take([1, 2]).T == 6
    assert c.take([2, 0]).ids == ("c", "a")
    assert c.take(np.array([True, False, False])).T == 5


def test_window_is_a_copy():
    y = np.array([[2.0, 3.0, 4.0, 5.0], [1.0, np.nan, 2.0, np.nan]])
    z = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
    c = Cohort(["a", "b"], y, z, days=[4, 3])
    w = c.window(2, 4)
    assert list(w.y[0]) == [3, 4, 5]
    assert list(w.z[0]) == [2, 3, 4]
    # a row ending before the window does keeps its own days
    assert w.days.tolist() == [3, 2] and w[1].y[1:].tolist() == [2.0]
    t = c.window(1, 2)
    assert list(t.y[0]) == [2, 3]
    y[0, 0] = 9.0
    assert c.y[0, 0] == t.y[0, 0] == 2.0
    assert not np.shares_memory(t.y, c.y)
    with pytest.raises(InsufficientDataError, match="'b'"):
        c.window(3, 4)  # b keeps one day


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


def _ragged_cohort(rng, K):
    """A right-padded cohort of gapped rows of 2 to 30 days: every third row
    has leading unreported days, every third a trailing gap, and every
    fourth exactly 2 reports."""
    T = 30
    y = np.full((K, T), np.nan)
    z = rng.uniform(0.0, 5.0, (K, T))
    days = rng.integers(2, T + 1, K)
    for k, n in enumerate(days):
        row = rng.uniform(0.0, 30.0, n)
        row[rng.random(n) < rng.uniform(0.0, 0.7)] = np.nan
        if k % 3 == 1:
            row[:rng.integers(0, n - 1)] = np.nan
        if k % 3 == 2:
            row[rng.integers(2, n + 1):] = np.nan
        if k % 4 == 3:
            row[:] = np.nan
        seen = np.flatnonzero(np.isfinite(row))
        if seen.size < 2:  # two reports, ordered as the row was cut
            keep = rng.choice(n, 2, replace=False)
            row[keep] = rng.uniform(0.0, 30.0, 2)
        y[k, :n] = row
    return Cohort(range(K), y, z, days)


def test_cohort_loss_is_each_rows_loss():
    # the (K, T) loss scores each row as the one-row loss does, to the bit
    rng = np.random.Generator(np.random.PCG64(17))
    for _ in range(10):
        cohort = _ragged_cohort(rng, 25)
        beta = rng.uniform(-0.4, 0.4, (len(cohort), 3))
        rows = loss(cohort, beta.T)
        assert rows.shape == (len(cohort),)
        for k in range(len(cohort)):
            assert rows[k] == loss(cohort[k], beta[k])
    with pytest.raises(InsufficientDataError, match="'b'"):
        loss(Cohort(["a", "b"], [[1.0, 2.0], [np.nan, 3.0]], np.ones((2, 2))),
             Beta())


def test_cohort_tape_matches_central_differences_and_one_row_tapes():
    rng = np.random.Generator(np.random.PCG64(19))
    h = 1e-6
    for _ in range(10):
        cohort = _ragged_cohort(rng, 40)
        beta = rng.uniform(-0.4, 0.4, (len(cohort), 3))
        res = autodiff.gradient(lambda b: loss(cohort, b), beta.T)
        grad = np.stack(res.gradient, axis=1)
        assert res.value.tobytes() == loss(cohort, beta.T).tobytes()
        for j in range(3):
            hi, lo = beta.copy(), beta.copy()
            hi[:, j] += h
            lo[:, j] -= h
            fd = (loss(cohort, hi.T) - loss(cohort, lo.T)) / (2.0 * h)
            disc = np.abs(grad[:, j] - fd) / np.maximum(1.0, np.abs(grad[:, j]))
            assert disc.max() < 1e-6
        for k in range(len(cohort)):
            one = autodiff.gradient(lambda b: loss(cohort[k], b), beta[k])
            assert one.value == res.value[k]
            np.testing.assert_allclose(grad[k], one.gradient, rtol=1e-12,
                                       atol=1e-12)


def test_cohort_tape_leaves_the_other_rows_their_values():
    rng = np.random.Generator(np.random.PCG64(23))
    cohort = _ragged_cohort(rng, 12)
    beta = rng.uniform(-0.4, 0.4, (len(cohort), 3))
    want = autodiff.gradient(lambda b: loss(cohort, b), beta.T)
    beta[3] = np.nan
    beta[5, 1] = 1e300  # overflows on its reported days
    with np.errstate(over="ignore", invalid="ignore"):
        got = autodiff.gradient(lambda b: loss(cohort, b), beta.T)
    bad = np.isin(np.arange(len(cohort)), [3, 5])
    assert np.isnan(got.value[bad]).all()
    assert got.value[~bad].tobytes() == want.value[~bad].tobytes()
    for g, w in zip(got.gradient, want.gradient):
        assert np.isnan(g[bad]).all()
        assert g[~bad].tobytes() == w[~bad].tobytes()


# -- predict_trajectory -----------------------------------------------------

def _one_row(s, beta):
    """(y_tilde, dy_hat) of ``s`` alone, as 1-d arrays."""
    y_tilde, dy_hat = predict_trajectory(s.y[None], s.r[None], s.z[None],
                                         [beta.as_array()])
    return y_tilde[0], dy_hat[0]


def test_trajectory_zero_beta_carries_constant():
    s = make_series([5, None, None, None, 7])
    y_tilde, dy_hat = _one_row(s, Beta())
    assert y_tilde.tolist() == [5.0, 5.0, 5.0, 5.0, 7.0]
    assert dy_hat[1:].tolist() == [0.0, 0.0, 0.0, 0.0]


def test_trajectory_unit_increments():
    s = make_series([2, None, None])
    y_tilde, _ = _one_row(s, Beta(1.0, 0.0, 0.0))
    assert y_tilde.tolist() == [2.0, 3.0, 4.0]


def test_trajectory_none_before_first_report():
    # NaN marks the days before the first report, where there is no state
    s = make_series([None, None, 3, 4])
    y_tilde, dy_hat = _one_row(s, Beta(0.5, 0.1, 0.0))
    assert np.isnan(y_tilde[:2]).all() and np.isnan(dy_hat[:3]).all()
    assert y_tilde[2] == 3.0


def test_trajectory_matches_reports_where_present():
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(20):
        s = random_gapped_series(rng)
        y_tilde, _ = _one_row(s, Beta(*rng.uniform(-0.3, 0.3, 3)))
        for t in range(s.T):
            if s.r[t]:
                assert y_tilde[t] == s.y[t]


def _bridge(y, z, r, beta):
    """Reference: the carry-forward recursion over one series' days, given
    as lists, in plain Python.

    Returns ``(first, states, preds)``: ``first`` is the 0-based first
    reported day, ``states[i]`` the bridged state on day ``first + i`` and
    ``preds[i]`` the predicted increment into day ``first + 1 + i``.
    """
    b1, b2, b3 = beta
    first = r.index(True)
    state = y[first]
    states = [state]
    preds = []
    for t in range(first + 1, len(y)):
        pred = b1 + b2 * state + b3 * z[t - 1]
        state = y[t] if r[t] else state + pred
        states.append(state)
        preds.append(pred)
    return first, states, preds


def _bridge_rows(cohort, betas, T):
    """Reference: ``_bridge`` one series at a time, NaN-padded to (K, T)."""
    y_tilde = np.full((len(cohort), T), np.nan)
    dy_hat = np.full((len(cohort), T), np.nan)
    for k, (s, beta) in enumerate(zip(cohort, betas)):
        first, states, preds = _bridge(s.y.tolist(), s.z.tolist(),
                                       s.r.tolist(), beta)
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
        got = predict_trajectory(*_padded(cohort, T), betas)
        want = _bridge_rows(cohort, betas, T)
        for g, w in zip(got, want):
            lengths = np.array([s.T for s in cohort])
            own = np.arange(T) < lengths[:, None]
            np.testing.assert_array_equal(np.where(own, g, 0.0),
                                          np.where(own, w, 0.0))


def test_predict_trajectory_is_one_row_of_bridge_cohort():
    # a row's trajectory does not depend on the other rows of its cohort
    s = make_series([None, 4, None, None, 7, None], z=[1, 2, 3, 1, 2, 3])
    other = make_series([1, None, 9, None, None, 2], z=[3, 1, 2, 3, 1, 2])
    beta = Beta(0.3, -0.05, 0.2)
    y_tilde, dy_hat = _one_row(s, beta)
    both = predict_trajectory(np.stack([other.y, s.y]),
                              np.stack([other.r, s.r]),
                              np.stack([other.z, s.z]),
                              [[1.0, 0.5, -2.0], beta.as_array()])
    assert np.isnan(y_tilde[0]) and np.isnan(dy_hat[:2]).all()
    assert y_tilde.tobytes() == both[0][1].tobytes()
    assert dy_hat.tobytes() == both[1][1].tobytes()


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
    _, dy_hat = _one_row(s, beta)
    # the increment predicted into the final day, after gap_len carried steps
    assert dy_hat[-1] == pytest.approx(
        expand_gap(anchor, list(z), beta, gap_len), abs=1e-12, rel=1e-12)


# -- the predicted last increment ------------------------------------------
# The increment into the final day is the last column of the trajectory; the
# evaluation scores it after fitting on the days before.

def test_predict_last_increment_zero_beta():
    assert _one_row(make_series([2, 3, 4]), Beta())[1][-1] == 0.0


def test_predict_last_increment_intercept_only():
    s = make_series([2, 3, 4, 6])
    assert _one_row(s, Beta(1.0, 0.0, 0.0))[1][-1] == 1.0


def test_predict_last_increment_requires_two_reports_before_T():
    cohort = Cohort.from_series([make_series([2, None, 4]),
                                 make_series([2, 3, 4])])
    _, _, ok = IncrementPredictor(config=FitConfig(steps=5)).predict_cohort(
        cohort)
    assert ok.tolist() == [False, True]


def test_predict_last_increment_consistent_with_trajectory():
    rng = np.random.Generator(np.random.PCG64(21))
    for _ in range(20):
        s = random_gapped_series(rng, T=12)
        if s.r[:-1].sum() < 2:
            continue
        beta = Beta(*rng.uniform(-0.3, 0.3, 3))
        inc = _one_row(s, beta)[1][-1]
        prev = _one_row(HospitalSeries(s.id, s.y[:-1], s.z[:-1]), beta)[0][-1]
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
    coefs = fit_linreg_locf(y[None], z[None])[0][0]
    X = np.column_stack([np.ones(T - 1), y[:-1], z[:-1]])
    resid = X @ coefs - np.diff(y)
    assert loss(s, coefs) == pytest.approx(np.mean(resid ** 2), abs=1e-12)
