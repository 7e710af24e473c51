import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gapfit import autodiff
from gapfit.benchmarks import fit_linreg_locf, locf_impute
from gapfit.errors import InsufficientDataError, UsageError
from gapfit.model import Beta, HospitalSeries, loss
from gapfit.optimizer import (FitConfig, _Residuals, _loss_grad_batch,
                              _loss_grad_tape, detect_divergence, fit,
                              fit_cohort, jacobi_etas, l2_penalty,
                              warm_start_inits)

from conftest import make_series, random_gapped_series


def test_config_validation():
    with pytest.raises(UsageError):
        FitConfig(eta=(1e-3, 1e-3))
    with pytest.raises(UsageError):
        FitConfig(eta=(1e-3, -1e-3, 1e-4))
    with pytest.raises(UsageError):
        FitConfig(steps=0)
    with pytest.raises(UsageError):
        FitConfig(lam=-0.1)
    with pytest.raises(UsageError):
        FitConfig(method="newton")
    with pytest.raises(UsageError):
        FitConfig(incidence_scale=0.0)
    with pytest.raises(UsageError):
        FitConfig(eta_safety=-1.0)


def test_l2_penalty_values_and_gradient():
    assert l2_penalty(Beta(), 3.0) == 0.0
    assert l2_penalty(Beta(1, 2, 3), 1.0) == 14.0
    res = autodiff.gradient(lambda b: l2_penalty(b, 0.5), [1.0, 2.0, 3.0])
    assert res.gradient == pytest.approx([1.0, 2.0, 3.0])


def test_detect_divergence():
    assert not detect_divergence([1.0, 0.5, 0.2], Beta(0.1, 0.0, 0.0))
    assert detect_divergence([1.0, np.inf], Beta())
    assert detect_divergence([1.0, 1.2, 1.5], Beta())
    assert detect_divergence([1.0, 0.5], Beta(np.nan, 0.0, 0.0))
    with pytest.raises(UsageError):
        detect_divergence([], Beta())


def test_one_gd_step_equals_minus_eta_gradient(anchor_series):
    eta0 = 1e-2
    config = FitConfig(eta=(eta0, eta0, eta0), steps=1, incidence_scale=1.0)
    res = fit(anchor_series, config)
    expected = -eta0 * np.array([-4.0 / 3.0, -10.0 / 3.0, -4.0 / 3.0])
    assert res.beta.as_array() == pytest.approx(expected, abs=1e-14)
    assert res.loss_trace[0] == pytest.approx(2.0 / 3.0)


def test_fit_zero_series_stays_at_zero():
    s = make_series([0, 0, 0, 0], z=[0, 0, 0, 0])
    res = fit(s, FitConfig(steps=50))
    assert res.beta == Beta(0.0, 0.0, 0.0)
    assert res.converged
    assert res.loss_trace[-1] == 0.0


def test_fit_diverges_with_huge_eta(anchor_series):
    config = FitConfig(eta=(1e3, 1e3, 1e3), steps=100, incidence_scale=1.0)
    res = fit(anchor_series, config)
    assert not res.converged
    assert res.fell_back


def test_fit_insufficient_data():
    with pytest.raises(InsufficientDataError):
        fit(make_series([None, 5]), FitConfig())


def test_recovers_known_beta_noiseless():
    # T=70 fully observed, beta*=(0.1, -0.05, 0.02); the fit must land on it.
    true = Beta(0.1, -0.05, 0.02)
    T = 70
    rng = np.random.Generator(np.random.PCG64(17))
    z = rng.uniform(0, 8, T)
    y = np.empty(T)
    y[0] = 12.0
    for t in range(1, T):
        y[t] = y[t - 1] + true.b1 + true.b2 * y[t - 1] + true.b3 * z[t - 1]
    s = HospitalSeries("n", y, z)
    res = fit(s, FitConfig(steps=8000, incidence_scale=1.0, auto_eta=True))
    assert np.abs(res.beta.as_array() - true.as_array()).max() < 1e-3
    assert res.loss_trace[-1] < 1e-8


def test_warm_start_at_truth_stays_there():
    true = Beta(0.2, -0.08, 0.03)
    T = 40
    rng = np.random.Generator(np.random.PCG64(29))
    z = rng.uniform(0, 5, T)
    y = np.empty(T)
    y[0] = 9.0
    for t in range(1, T):
        y[t] = y[t - 1] + true.b1 + true.b2 * y[t - 1] + true.b3 * z[t - 1]
    s = HospitalSeries("w", y, z)
    config = FitConfig(steps=200, incidence_scale=1.0, init=true)
    res = fit(s, config)
    assert np.abs(res.beta.as_array() - true.as_array()).max() < 1e-10
    assert res.converged


def test_batch_and_tape_engines_agree():
    rng = np.random.Generator(np.random.PCG64(41))
    settings = [
        dict(eta=(1e-3, 1e-3, 1e-4), steps=80, lam=0.1),
        dict(method="adam", eta=(1e-2, 1e-2, 1e-2), steps=80),
        dict(steps=80, auto_eta=True, warm_start=True),
    ]
    for _ in range(5):
        s = random_gapped_series(rng, T=14)
        for kwargs in settings:
            batch = fit(s, FitConfig(engine="batch", **kwargs))
            tape = fit(s, FitConfig(engine="tape", **kwargs))
            assert batch.beta.as_array() == pytest.approx(
                tape.beta.as_array(), rel=1e-9, abs=1e-12), kwargs
            assert batch.loss_trace == pytest.approx(tape.loss_trace, rel=1e-9)
            assert batch.steps_used == tape.steps_used
            assert batch.converged == tape.converged


@pytest.mark.parametrize("method, eta", [("gd", 1e3), ("gd", 10.0),
                                         ("adam", 1e3)])
def test_batch_and_tape_engines_agree_on_diverged_fits(anchor_series, method,
                                                       eta):
    # GD at these steps overflows; both engines turn the row NaN at the
    # first non-finite loss or gradient instead of keeping a huge beta.
    # ADAM's bounded steps make the loss rise without overflowing.
    rng = np.random.Generator(np.random.PCG64(43))
    for s in [anchor_series, random_gapped_series(rng, T=14)]:
        kwargs = dict(method=method, eta=(eta, eta, eta), steps=100,
                      incidence_scale=1.0)
        batch = fit(s, FitConfig(engine="batch", **kwargs))
        tape = fit(s, FitConfig(engine="tape", **kwargs))
        assert batch.steps_used == tape.steps_used
        assert batch.converged == tape.converged
        assert batch.loss_trace == pytest.approx(tape.loss_trace, rel=1e-9)
        assert np.all(np.isfinite(batch.loss_trace))
        if method == "gd":
            assert not batch.converged
            assert batch.steps_used < 100
            assert np.isnan(batch.beta.as_array()).all()
            assert np.isnan(tape.beta.as_array()).all()


def _row_mask(kind, T, rng):
    """Report mask of one row of a kernel test cohort."""
    r = np.ones(T, dtype=bool)
    if kind == "leading":
        r[:rng.integers(1, T - 1)] = False
    elif kind == "trailing":
        r[T - rng.integers(1, T - 1):] = False
    elif kind == "long_gap":
        r[1:-1] = False
    elif kind == "no_direct":
        r[1::2] = False
    elif kind == "random":
        r = rng.random(T) < rng.uniform(0.2, 1.0)
        r[rng.choice(T, 2, replace=False)] = True
    return r


@st.composite
def kernel_cohorts(draw):
    """(y, r, z) with every row kind once, plus random rows, shuffled."""
    T = draw(st.integers(min_value=4, max_value=16))
    extra = draw(st.integers(min_value=0, max_value=4))
    rng = np.random.Generator(np.random.PCG64(
        draw(st.integers(min_value=0, max_value=2**32))))
    kinds = ["full", "leading", "trailing", "long_gap", "no_direct"]
    kinds += ["random"] * extra
    r = np.stack([_row_mask(k, T, rng) for k in rng.permutation(kinds)])
    y = np.where(r, rng.uniform(0.0, 60.0, r.shape), np.nan)
    z = rng.uniform(0.0, 5.0, r.shape)
    beta = rng.uniform(-0.4, 0.4, (len(r), 3))
    return y, r, z, beta


# Only the unscored states after the last report overflow here: the loss and
# gradient are finite on both engines.
_TRAILING_OVERFLOW = (np.array([[1.0, 2.0] + [np.nan] * 40]),
                      np.array([[True, True] + [False] * 40]),
                      np.ones((1, 42)), np.array([[0.0, 1e10, 0.0]]))


@settings(max_examples=150, deadline=None)
@given(kernel_cohorts(), st.sampled_from([0.0, 0.3]))
@example(_TRAILING_OVERFLOW, 0.0)
def test_batch_kernel_matches_tape_and_is_row_local(cohort, lam):
    y, r, z, beta = cohort
    loss_b, grad_b = _loss_grad_batch(_Residuals(y, r, z), beta, lam)
    loss_t, grad_t = _loss_grad_tape(y, z, beta, lam)
    np.testing.assert_allclose(loss_b, loss_t, rtol=1e-9)
    # a component that cancels to near zero is held to its terms' scale
    scale = 1e-12 * (1.0 + np.abs(grad_t).max(axis=1, keepdims=True))
    assert np.all(np.abs(grad_b - grad_t) <= 1e-9 * np.abs(grad_t) + scale)
    for k in range(len(y)):
        row = slice(k, k + 1)
        loss_k, grad_k = _loss_grad_batch(_Residuals(y[row], r[row], z[row]),
                                          beta[row], lam)
        assert loss_k.tobytes() == loss_b[row].tobytes()
        assert grad_k.tobytes() == grad_b[row].tobytes()


def test_adam_runs_and_descends(anchor_series):
    config = FitConfig(method="adam", eta=(1e-2, 1e-2, 1e-2), steps=500,
                       incidence_scale=1.0)
    res = fit(anchor_series, config)
    assert res.converged
    assert res.loss_trace[-1] < res.loss_trace[0]


def test_fit_is_deterministic():
    rng = np.random.Generator(np.random.PCG64(55))
    s = random_gapped_series(rng, T=20)
    config = FitConfig(steps=300)
    a = fit(s, config)
    b = fit(s, config)
    assert a.beta == b.beta
    assert a.loss_trace == b.loss_trace


def test_fit_does_not_mutate_series():
    rng = np.random.Generator(np.random.PCG64(63))
    s = random_gapped_series(rng, T=15)
    y_before, z_before = s.y.copy(), s.z.copy()
    fit(s, FitConfig(steps=100))
    np.testing.assert_array_equal(s.z, z_before)
    np.testing.assert_array_equal(np.isfinite(s.y), np.isfinite(y_before))


def test_fit_cohort_matches_single_fits():
    rng = np.random.Generator(np.random.PCG64(77))
    cohort = [random_gapped_series(rng, T=16, id=f"c{i}") for i in range(6)]
    config = FitConfig(steps=200)
    batch = fit_cohort(cohort, config)
    for s, res in zip(cohort, batch):
        single = fit(s, config)
        assert res.beta == single.beta
        assert res.loss_trace == single.loss_trace


def test_fit_cohort_rejects_single_report_series():
    cohort = [make_series([2, 3, 4]), make_series([None, 5, None])]
    with pytest.raises(InsufficientDataError):
        fit_cohort(cohort, FitConfig())


def test_l2_shrinks_parameters(anchor_series):
    plain = fit(anchor_series, FitConfig(steps=2000, incidence_scale=1.0))
    reg = fit(anchor_series, FitConfig(steps=2000, lam=5.0, incidence_scale=1.0))
    assert np.linalg.norm(reg.beta.as_array()) < np.linalg.norm(plain.beta.as_array())


def test_warm_start_inits_match_locf_ols():
    rng = np.random.Generator(np.random.PCG64(83))
    cohort = [random_gapped_series(rng, T=20, id=f"i{i}") for i in range(4)]
    config = FitConfig(incidence_scale=1.0)
    inits = warm_start_inits(cohort, config)
    for k, s in enumerate(cohort):
        expected = fit_linreg_locf(s).beta.as_array()
        assert inits[k] == pytest.approx(expected, rel=1e-12)


def test_jacobi_etas_and_warm_starts_match_per_series_loops():
    rng = np.random.Generator(np.random.PCG64(47))
    cohort = [random_gapped_series(rng, T=25, id=f"w{i}") for i in range(30)]
    config = FitConfig(incidence_scale=0.01, eta_safety=0.15)
    etas = np.empty((len(cohort), 3))
    inits = np.empty((len(cohort), 3))
    for k, s in enumerate(cohort):
        y = locf_impute(s.y)
        z = s.z * config.incidence_scale
        x = np.column_stack([np.ones(s.T - 1), y[:-1], z[:-1]])
        h = 2.0 * np.einsum("ij,ij->j", x, x) / (s.T - 1)
        etas[k] = config.eta_safety / np.maximum(h, 1e-12)
        inits[k] = fit_linreg_locf(
            s.with_scaled_z(config.incidence_scale)).beta.as_array()
    np.testing.assert_array_equal(jacobi_etas(cohort, config), etas)
    np.testing.assert_array_equal(warm_start_inits(cohort, config), inits)
    # too short for the regression: every row starts at config.init
    short = [s.window(1, 3) for s in cohort[:4]]
    config = FitConfig(init=Beta(0.1, -0.2, 0.3))
    np.testing.assert_array_equal(warm_start_inits(short, config),
                                  np.tile([0.1, -0.2, 0.3], (4, 1)))


def test_jacobi_etas_shape_and_positivity():
    rng = np.random.Generator(np.random.PCG64(91))
    cohort = [random_gapped_series(rng, T=20, id=f"j{i}") for i in range(5)]
    etas = jacobi_etas(cohort, FitConfig(eta_safety=0.2))
    assert etas.shape == (5, 3)
    assert np.all(etas > 0)
    half = jacobi_etas(cohort, FitConfig(eta_safety=0.1))
    assert half == pytest.approx(etas / 2, rel=1e-15)
    with pytest.raises(UsageError):
        FitConfig(eta_safety=0.0)
