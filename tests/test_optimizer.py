import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gapfit import autodiff
from gapfit.benchmarks import fit_linreg_locf, locf_impute
from gapfit.datagen import MissingnessSpec, SimSpec, simulate_cohort
from gapfit.errors import InsufficientDataError, UsageError
from gapfit.evaluation import _heads
from gapfit.model import Beta, Cohort, HospitalSeries, loss
from gapfit.optimizer import (FitConfig, _judge_convergence,
                              _Residuals, _loss_grad_batch,
                              detect_divergence, fit, fit_cohort, jacobi_etas,
                              l2_penalty, warm_start_inits)
from gapfit.sharing import SharingSpec, fit_shared

from conftest import (_loss_grad_tape, make_series, on_tape,
                      random_gapped_series)


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
    with pytest.raises(TypeError):
        FitConfig(engine="tape")


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


def _reference_converged(trace, beta, shared):
    """The per-row judgement ``_run_batch`` replaced, kept as oracle."""
    traces = [col[~np.isnan(col)].tolist() or [float("nan")]
              for col in trace.T]
    converged = [not detect_divergence(tr, b) for tr, b in zip(traces, beta)]
    if shared:
        finite = [k for k, tr in enumerate(traces)
                  if np.isfinite(tr).all() and np.isfinite(beta[k]).all()]
        if finite:
            first = float(np.mean([traces[k][0] for k in finite]))
            last = float(np.mean([traces[k][-1] for k in finite]))
            for k in finite:
                converged[k] = last <= first
    return converged


def _random_trace(rng, S, kind):
    """One row of the driver's (S+1, K) loss array."""
    if kind == "flat":
        return np.full(S + 1, rng.uniform(0.0, 5.0))
    row = rng.uniform(0.0, 5.0, S + 1)
    if kind == "falling":
        row = np.sort(row)[::-1]
    elif kind == "rising":
        row = np.sort(row)
    elif kind == "stops":  # NaN from the step the row stopped, maybe step 1
        row[int(rng.integers(1, S + 2)):] = np.nan
    elif kind == "never":
        row[:] = np.nan
    elif kind == "hole":
        row[int(rng.integers(0, S + 1))] = np.nan
    elif kind == "inf":
        row[int(rng.integers(0, S + 1))] = rng.choice([np.inf, -np.inf])
    return row


def test_convergence_on_arrays_matches_per_row_judgement():
    rng = np.random.Generator(np.random.PCG64(404))
    kinds = ["flat", "falling", "rising", "random", "stops", "never", "hole",
             "inf"]
    for trial in range(400):
        S, K = int(rng.integers(0, 7)), int(rng.integers(1, 12))
        mix = rng.choice(kinds, size=int(rng.integers(1, 4)))
        trace = np.column_stack([_random_trace(rng, S, rng.choice(mix))
                                 for _ in range(K)])
        beta = rng.normal(0.0, 1.0, (K, 3))
        beta[rng.random((K, 3)) < 0.05] = rng.choice([np.nan, np.inf])
        for shared in (False, True):
            flags = _judge_convergence(trace, beta, shared)
            assert flags.tolist() == _reference_converged(trace, beta, shared)


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
            batch = fit(s, FitConfig(**kwargs))
            tape = on_tape(fit, s, FitConfig(**kwargs))
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
        batch = fit(s, FitConfig(**kwargs))
        tape = on_tape(fit, s, FitConfig(**kwargs))
        assert batch.steps_used == tape.steps_used
        assert batch.converged == tape.converged
        assert batch.loss_trace == pytest.approx(tape.loss_trace, rel=1e-9)
        assert np.all(np.isfinite(batch.loss_trace))
        if method == "gd":
            assert not batch.converged
            assert batch.steps_used < 100
            assert np.isnan(batch.beta.as_array()).all()
            assert np.isnan(tape.beta.as_array()).all()


@pytest.mark.parametrize("dims", [{2}, {1, 3}, {1, 2, 3}])
@pytest.mark.parametrize("kwargs", [
    dict(steps=60),
    dict(method="adam", steps=60, auto_eta=True, warm_start=True),
], ids=["gd", "adam-auto-warm"])
def test_batch_and_tape_engines_agree_on_shared_dimensions(dims, kwargs):
    # the driver's rules for a shared dimension (common start and step, an
    # average after every step, the joint convergence test) on both kernels
    rng = np.random.Generator(np.random.PCG64(53))
    cohort = Cohort.from_series([random_gapped_series(rng, T=14, id=str(k))
                                 for k in range(5)])
    spec, config = SharingSpec(frozenset(dims)), FitConfig(**kwargs)
    batch = fit_shared(cohort, spec, config).results
    tape = on_tape(fit_shared, cohort, spec, config).results
    shared = sorted(d - 1 for d in dims)
    for results in (batch, tape):
        coefs = np.array([res.beta.as_array() for res in results])
        assert np.all(coefs[:, shared] == coefs[0, shared])
    for b, t in zip(batch, tape):
        assert b.steps_used == t.steps_used
        assert b.converged == t.converged
        assert b.loss_trace == pytest.approx(t.loss_trace, rel=1e-9)
        assert b.beta.as_array() == pytest.approx(
            t.beta.as_array(), rel=1e-9, abs=1e-12)


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
    loss_t, grad_t = _loss_grad_tape(Cohort(range(len(y)), y, z), beta, lam)
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
    # ragged rows, each cut after a day that keeps its 2 reports and padded
    # as a Cohort pads them: the kernel stays pinned to the cohort tape,
    # whose rows are the tapes of the rows alone
    K, T = y.shape
    second = np.argmax(np.cumsum(r, axis=1) >= 2, axis=1)
    days = second + 1 + (7 * np.arange(K)) % (T - second)
    padded = Cohort(range(K), y, z, days)
    loss_b, grad_b = _loss_grad_batch(
        _Residuals(padded.y, padded.r, padded.z), beta, lam)
    loss_t, grad_t = _loss_grad_tape(padded, beta, lam)
    np.testing.assert_allclose(loss_b, loss_t, rtol=1e-9)
    scale = 1e-12 * (1.0 + np.abs(grad_t).max(axis=1, keepdims=True))
    assert np.all(np.abs(grad_b - grad_t) <= 1e-9 * np.abs(grad_t) + scale)
    for k, n in enumerate(days):
        loss_k, grad_k = _loss_grad_tape(
            Cohort([k], padded.y[k:k + 1, :n], padded.z[k:k + 1, :n]),
            beta[k:k + 1], lam)
        assert loss_k.tobytes() == loss_t[k:k + 1].tobytes()
        assert grad_k.tobytes() == grad_t[k:k + 1].tobytes()


def _kernel_against_tape(y, r, z, beta, lam=0.0):
    """The kernel's and the tape's (loss, grad) of a cohort, after checking
    that each row of the kernel gives the same bits alone."""
    batch = _loss_grad_batch(_Residuals(y, r, z), beta, lam)
    for k in range(len(y)):
        row = slice(k, k + 1)
        alone = _loss_grad_batch(_Residuals(y[row], r[row], z[row]),
                                 beta[row], lam)
        assert alone[0].tobytes() == batch[0][row].tobytes()
        assert alone[1].tobytes() == batch[1][row].tobytes()
    return batch, _loss_grad_tape(Cohort(range(len(y)), y, z), beta, lam)


@pytest.mark.parametrize("missingness", [
    MissingnessSpec(mcar_rate=0.0, gap_start_prob=0.0),
    MissingnessSpec(mcar_rate=0.3, gap_start_prob=0.05),
], ids=["full", "gapped"])
def test_batch_kernel_at_a_noiseless_optimum(missingness):
    # the kernel scores the direct residuals as ||R b - Q'dy||^2 plus the
    # projection residual's squared norm, so at the truth, where they are
    # round-off, the loss is a non-negative round-off too
    config = FitConfig()
    cohort, truth = simulate_cohort(SimSpec(
        n_hospitals=40, n_days=40, missingness=missingness, seed=29))
    y, r, z = cohort.y, cohort.r, cohort.z * config.incidence_scale
    beta = np.array([b.as_array() for b in truth.betas])
    (loss_b, grad_b), (loss_t, grad_t) = _kernel_against_tape(y, r, z, beta)
    loss0, grad0 = _loss_grad_tape(cohort, np.zeros_like(beta), 0.0)
    assert np.all(loss_b >= 0.0)
    assert np.all(np.abs(loss_b - loss_t) <= 1e-9 * loss_t + 1e-12 * loss0)
    scale = 1e-12 * np.abs(grad0).max(axis=1, keepdims=True)
    assert np.all(np.abs(grad_b - grad_t) <= 1e-9 * np.abs(grad_t) + scale)
    # most rows sit at their optimum: the loss is round-off of the data
    assert np.median(loss_b / loss0) < 1e-20


def _rows(masks, rng, z=None):
    r = np.array(masks, dtype=bool)
    y = np.where(r, rng.uniform(0.0, 60.0, r.shape), np.nan)
    z = rng.uniform(0.0, 5.0, r.shape) if z is None else z
    return y, r, z


@pytest.mark.parametrize("lam", [0.0, 0.3])
@pytest.mark.parametrize("kind", ["T2", "T3", "direct_cells", "constant"])
def test_batch_kernel_on_rows_the_strategy_never_draws(kind, lam):
    # fewer than 3 direct residuals or collinear columns leave R singular;
    # nothing is solved, so the kernel still follows the tape
    rng = np.random.Generator(np.random.PCG64(31))
    if kind == "T2":
        y, r, z = _rows([[1, 1]] * 3, rng)
    elif kind == "T3":
        y, r, z = _rows([[1, 1, 1], [1, 0, 1], [1, 1, 0], [0, 1, 1]], rng)
    elif kind == "direct_cells":
        # no direct cell, exactly 1 and exactly 2
        y, r, z = _rows([[1, 0, 1, 0, 1, 0, 0, 1],
                         [0, 1, 1, 0, 0, 1, 0, 0],
                         [1, 1, 1, 0, 0, 0, 1, 0]], rng)
    else:
        # constant z, and constant y with constant z
        y, r, z = _rows([[1] * 9, [1, 1, 0, 1, 1, 1, 0, 0, 1]], rng,
                        z=np.full((2, 9), 2.5))
        y[1, r[1]] = 7.0
    beta = rng.uniform(-0.4, 0.4, (len(y), 3))
    (loss_b, grad_b), (loss_t, grad_t) = _kernel_against_tape(
        y, r, z, beta, lam)
    np.testing.assert_allclose(loss_b, loss_t, rtol=1e-9)
    scale = 1e-12 * (1.0 + np.abs(grad_t).max(axis=1, keepdims=True))
    assert np.all(np.abs(grad_b - grad_t) <= 1e-9 * np.abs(grad_t) + scale)


def test_fits_that_start_at_their_optimum_do_not_fall_back():
    # the warm start of a fully reported row is its least-squares optimum,
    # so GD moves its loss only in the last bits, and a last-bit rise would
    # read as "loss rose" (rows 144 and 478 here)
    config = FitConfig(auto_eta=True, warm_start=True, eta_safety=0.05,
                       steps=10)
    cohort, _ = simulate_cohort(SimSpec(n_hospitals=500, n_days=70, seed=3))
    usable, heads, setup = _heads(cohort.window(1, 69), config)
    fit = fit_shared(heads, SharingSpec(), config, setup=setup)
    assert len(usable) == 500
    assert fit.converged.all()


@pytest.mark.parametrize("method", ["gd", "adam"])
@pytest.mark.parametrize("dims", [(), (1, 2)])
def test_trace_is_finite_until_a_row_stops_then_nan(method, dims):
    # traces.csv, params.csv's final_loss and CohortFit.results all read a
    # column's losses as its finite prefix
    rng = np.random.Generator(np.random.PCG64(23))
    rows = [random_gapped_series(rng, 30, id=f"r{k}") for k in range(24)]
    cohort = Cohort.from_series(rows)
    S = 60
    # step sizes from 1e-5 to 1e200 per row: some rows run every step,
    # others diverge late, or at once to where the loss overflows; the
    # first starts where its loss overflows and records none
    eta = np.r_[np.logspace(-5, 1, 16), np.logspace(160, 200, 8)]
    eta = eta[:, None] * np.ones(3)
    init = np.zeros((len(rows), 3))
    init[0, 2] = 1e200
    fit = fit_shared(cohort, SharingSpec(frozenset(dims)),
                     FitConfig(steps=S, method=method, incidence_scale=1.0),
                     setup=(eta, init, _Residuals(cohort.y, cohort.r,
                                                  cohort.z)))
    trace, steps = fit.trace, fit.steps_used
    recorded = ~np.isnan(trace)
    n = recorded.sum(axis=0)
    np.testing.assert_array_equal(recorded, np.arange(S + 1)[:, None] < n)
    assert np.isfinite(trace[recorded]).all()
    # a row stops at its first non-finite loss or coefficients
    assert np.all((n >= steps - 1) & (n <= np.minimum(steps + 1, S + 1)))
    assert n[0] == 0 and ((n > 0) & (n < S)).any()
    # under GD, rows that diverge late drag the shared means with them
    assert (n == S + 1).any() or (dims and method == "gd")
    # each FitResult as fit_shared once built it from its row
    for k, res in enumerate(fit.results):
        losses = [v for v in trace[:, k].tolist() if v == v] or [float("nan")]
        np.testing.assert_array_equal(res.loss_trace, losses)
        assert all(type(v) is float for v in res.loss_trace)
        np.testing.assert_array_equal(res.beta.as_array(), fit.beta[k])
        assert res.converged is bool(fit.converged[k])
        assert type(res.steps_used) is int and res.steps_used == steps[k]


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
    cohort = Cohort.from_series([random_gapped_series(rng, T=16, id=f"c{i}")
                                 for i in range(6)])
    config = FitConfig(steps=200)
    batch = fit_cohort(cohort, config)
    for s, res in zip(cohort, batch):
        single = fit(s, config)
        assert res.beta == single.beta
        assert res.loss_trace == single.loss_trace


def test_fit_cohort_rejects_single_report_series():
    cohort = Cohort.from_series([make_series([2, 3, 4]),
                                 make_series([None, 5, None])])
    with pytest.raises(InsufficientDataError):
        fit_cohort(cohort, FitConfig())


def test_l2_shrinks_parameters(anchor_series):
    plain = fit(anchor_series, FitConfig(steps=2000, incidence_scale=1.0))
    reg = fit(anchor_series, FitConfig(steps=2000, lam=5.0, incidence_scale=1.0))
    assert np.linalg.norm(reg.beta.as_array()) < np.linalg.norm(plain.beta.as_array())


def test_warm_start_inits_match_locf_ols():
    rng = np.random.Generator(np.random.PCG64(83))
    cohort = Cohort.from_series([random_gapped_series(rng, T=20, id=f"i{i}")
                                 for i in range(4)])
    config = FitConfig(incidence_scale=1.0)
    inits = warm_start_inits(cohort.y, cohort.r, cohort.z, config)
    for k, s in enumerate(cohort):
        expected = fit_linreg_locf(locf_impute(s.y)[None], s.z[None])[0][0]
        assert inits[k] == pytest.approx(expected, rel=1e-12)


def test_jacobi_etas_and_warm_starts_match_per_series_loops():
    rng = np.random.Generator(np.random.PCG64(47))
    cohort = Cohort.from_series([random_gapped_series(rng, T=25, id=f"w{i}")
                                 for i in range(30)])
    config = FitConfig(incidence_scale=0.01, eta_safety=0.15)
    etas = np.empty((len(cohort), 3))
    inits = np.empty((len(cohort), 3))
    for k, s in enumerate(cohort):
        y = locf_impute(s.y)
        z = s.z * config.incidence_scale
        x = np.column_stack([np.ones(s.T - 1), y[:-1], z[:-1]])
        h = 2.0 * np.einsum("ij,ij->j", x, x) / (s.T - 1)
        etas[k] = config.eta_safety / np.maximum(h, 1e-12)
        inits[k] = fit_linreg_locf(y[None], z[None])[0][0]
    y, r, z = cohort.y, cohort.r, cohort.z * config.incidence_scale
    np.testing.assert_array_equal(jacobi_etas(y, r, z, config), etas)
    np.testing.assert_array_equal(warm_start_inits(y, r, z, config), inits)
    # too short for the regression: every row starts at config.init
    config = FitConfig(init=Beta(0.1, -0.2, 0.3))
    np.testing.assert_array_equal(
        warm_start_inits(y[:4, :3], r[:4, :3], z[:4, :3], config),
        np.tile([0.1, -0.2, 0.3], (4, 1)))


def test_jacobi_etas_shape_and_positivity():
    rng = np.random.Generator(np.random.PCG64(91))
    cohort = Cohort.from_series([random_gapped_series(rng, T=20, id=f"j{i}")
                                 for i in range(5)])
    arrays = cohort.y, cohort.r, cohort.z
    etas = jacobi_etas(*arrays, FitConfig(eta_safety=0.2))
    assert etas.shape == (5, 3)
    assert np.all(etas > 0)
    half = jacobi_etas(*arrays, FitConfig(eta_safety=0.1))
    assert half == pytest.approx(etas / 2, rel=1e-15)
    with pytest.raises(UsageError):
        FitConfig(eta_safety=0.0)
