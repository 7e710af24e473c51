"""Gradient-descent and ADAM fitting of the increment model.

There is one cohort fit path: :func:`fit` and :func:`fit_cohort` call
:func:`gapfit.sharing.fit_shared` with no shared dimension, and
``fit_shared`` calls the one driver, :func:`_run_batch`.  The driver runs the
GD/ADAM updates, divergence masking and convergence judgement for a whole
cohort, and it owns every rule of a shared dimension: a common start, a
common step size, an average after every step and a convergence test on the
joint loss.  It takes the loss and gradient of every hospital from one of two
kernels with the same contract:

* ``batch`` (default): a gap-aware numpy kernel over the cohort.  Once per
  fit, :class:`_Residuals` splits the scored residuals by whether the
  previous day was reported.  Those that follow a report are linear in beta
  and are scored each step in one dense masked pass.  Those that close a
  reporting gap are flattened into segments and bridged one gap depth at a
  time, carrying the state and its three forward sensitivities
  d(state)/d(beta).  The test suite pins this kernel against the tape engine
  and against finite differences.
* ``tape``: the reverse-mode autodiff engine from :mod:`gapfit.autodiff`,
  differentiating :func:`gapfit.model.loss` row by row.  It is the reference
  the batch kernel is checked against.

Both engines are deterministic, and a hospital's result does not depend on
which other hospitals share its batch: identical inputs produce bit-identical
fits.  A row whose loss or gradient turns non-finite gets NaN from either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import autodiff
from .errors import EvaluationError, InsufficientDataError, UsageError
from .model import Beta, HospitalSeries, loss as model_loss

__all__ = ["FitConfig", "FitResult", "fit", "fit_cohort", "l2_penalty",
           "detect_divergence", "jacobi_etas", "warm_start_inits"]


# ADAM's moment decay rates and denominator guard, at their usual values.
ADAM_DECAY1 = 0.9
ADAM_DECAY2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class FitConfig:
    """Hyperparameters for one fit.

    ``eta`` holds per-parameter step sizes; the default keeps the incidence
    coefficient's step an order of magnitude below the others.  ``incidence_scale``
    is applied to z before fitting (and must be applied identically when
    predicting with the resulting coefficients).

    ``auto_eta`` replaces ``eta`` with per-hospital steps from
    :func:`jacobi_etas` (scaled by ``eta_safety``); ``warm_start`` replaces
    ``init`` with per-hospital OLS starts from :func:`warm_start_inits`.
    Both apply to either engine.
    """

    eta: tuple = (1e-3, 1e-3, 1e-4)
    steps: int = 1000
    lam: float = 0.0
    init: Beta = field(default_factory=Beta)
    method: str = "gd"
    incidence_scale: float = 0.01
    engine: str = "batch"
    auto_eta: bool = False
    eta_safety: float = 0.2
    warm_start: bool = False

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=float)
        if eta.shape != (3,) or not np.all(eta > 0):
            raise UsageError("eta must be 3 positive step sizes")
        if self.steps < 1:
            raise UsageError("steps must be >= 1")
        if self.lam < 0:
            raise UsageError("lambda must be nonnegative")
        if self.method not in ("gd", "adam"):
            raise UsageError(f"unknown method {self.method!r}")
        if self.engine not in ("batch", "tape"):
            raise UsageError(f"unknown engine {self.engine!r}")
        if self.incidence_scale <= 0:
            raise UsageError("incidence_scale must be positive")
        if self.eta_safety <= 0:
            raise UsageError("eta_safety must be positive")


@dataclass
class FitResult:
    beta: Beta
    loss_trace: list
    converged: bool
    steps_used: int

    @property
    def fell_back(self):
        return not self.converged


def l2_penalty(beta, lam):
    """lam * (b1^2 + b2^2 + b3^2); differentiable through the tape engine."""
    if lam < 0:
        raise UsageError("lambda must be nonnegative")
    if isinstance(beta, Beta):
        beta = (beta.b1, beta.b2, beta.b3)
    b1, b2, b3 = beta
    return lam * (autodiff.square(b1) + autodiff.square(b2) + autodiff.square(b3))


def detect_divergence(trace, beta):
    """True iff the trace or parameters are non-finite, or the loss rose overall."""
    if len(trace) == 0:
        raise UsageError("empty loss trace")
    arr = np.asarray(trace, dtype=float)
    b = beta.as_array() if isinstance(beta, Beta) else np.asarray(beta, dtype=float)
    if not np.all(np.isfinite(arr)) or not np.all(np.isfinite(b)):
        return True
    return bool(arr[-1] > arr[0])


# ---------------------------------------------------------------------------
# gap-aware batch kernel


def _batch_arrays(cohort):
    T = cohort[0].T
    for s in cohort:
        if s.T != T:
            raise UsageError("cohort series must share the same length")
    y = np.stack([s.y for s in cohort])
    z = np.stack([s.z for s in cohort])
    r = np.stack([s.r for s in cohort])
    return y, r, z


class _Residuals:
    """The scored residuals of a cohort, laid out once per fit.

    A residual on day t whose previous day was reported is linear in beta.
    Those are kept as masked dense (K, T-1) arrays: ``w`` is 1.0 where days t
    and t-1 are both reported, and ``y_prev``, ``z_prev`` and ``dy`` are
    zeroed where it is 0, so a masked-off cell scores exactly 0.  Every other
    scored residual closes a gap segment: a report on day t after the last
    report on day t0 < t-1, with depth g = t-1-t0 carried steps.  Segments
    are sorted deepest first (stable on hospital, day), so the ones still
    carrying at depth j are the prefix of length ``len(z_depth[j])``.
    """

    def __init__(self, y, r, z):
        K, T = y.shape
        direct = r[:, 1:] & r[:, :-1]
        self.w = direct.astype(float)
        self.y_prev = np.where(direct, y[:, :-1], 0.0)
        self.z_prev = np.where(direct, z[:, :-1], 0.0)
        self.dy = np.where(direct, y[:, 1:] - y[:, :-1], 0.0)
        # last reported day at or before day t-1, -1 before the first report
        last = np.maximum.accumulate(np.where(r, np.arange(T), -1), axis=1)
        last = last[:, :-1]
        hosp, prev = np.nonzero(r[:, 1:] & ~r[:, :-1] & (last >= 0))
        anchor_day = last[hosp, prev]
        depth = prev - anchor_day
        order = np.argsort(-depth, kind="stable")
        hosp, prev = hosp[order], prev[order]
        anchor_day, depth = anchor_day[order], depth[order]
        self.hosp = hosp
        self.anchor = y[hosp, anchor_day]
        self.target = y[hosp, prev + 1]
        self.z_last = z[hosp, prev]
        # the first carrying[j] segments have depth > j
        carrying = np.searchsorted(-depth, -np.arange(depth.max(initial=0)))
        self.z_depth = [z[hosp[:n], anchor_day[:n] + j]
                        for j, n in enumerate(carrying)]
        self.count = direct.sum(axis=1) + np.bincount(hosp, minlength=K)


def _loss_grad_batch(res, beta, lam):
    """Loss and gradient for every hospital at once.

    ``res`` is the cohort's :class:`_Residuals` and ``beta`` is (K, 3).  Gap
    segments carry the bridged state and its forward sensitivities
    d(state)/d(beta), exactly the derivative of the executed path of the
    scalar loss.  A row whose loss or gradient is non-finite gets NaN, as
    from the tape engine.  Returns (loss (K,), grad (K, 3)).
    """
    K = beta.shape[0]
    b1, b2, b3 = beta[:, 0:1], beta[:, 1:2], beta[:, 2:3]
    resid = res.w * b1
    resid += res.y_prev * b2
    resid += res.z_prev * b3
    resid -= res.dy
    sqe = (resid * resid).sum(axis=1)
    g0 = resid.sum(axis=1)
    g1 = (resid * res.y_prev).sum(axis=1)
    g2 = (resid * res.z_prev).sum(axis=1)
    if res.hosp.size:
        h = res.hosp
        c1, c2, c3 = beta[h, 0], beta[h, 1], beta[h, 2]
        x = res.anchor.copy()
        d0 = np.zeros_like(x)
        d1 = np.zeros_like(x)
        d2 = np.zeros_like(x)
        growth = 1.0 + c2
        for zj in res.z_depth:
            # one carried day for the first n segments, in place:
            # (d0, d1, d2) <- growth*(d0, d1, d2) + (1, state, z), then
            # state <- growth*state + b1 + b3*z
            n = len(zj)
            gn, xn = growth[:n], x[:n]
            for d, dpred in ((d0, 1.0), (d1, xn), (d2, zj)):
                dn = d[:n]
                dn *= gn
                dn += dpred
            xn *= gn
            xn += c1[:n]
            xn += c3[:n] * zj
        e = c1 + c2 * x + c3 * res.z_last - (res.target - x)
        sqe += np.bincount(h, e * e, K)
        g0 += np.bincount(h, e * (growth * d0 + 1.0), K)
        g1 += np.bincount(h, e * (growth * d1 + x), K)
        g2 += np.bincount(h, e * (growth * d2 + res.z_last), K)
    lossv = sqe / res.count
    grad = np.stack([g0, g1, g2], axis=1) * (2.0 / res.count)[:, None]
    if lam > 0.0:
        lossv = lossv + lam * (beta * beta).sum(axis=1)
        grad = grad + (2.0 * lam) * beta
    bad = ~(np.isfinite(lossv) & np.isfinite(grad).all(axis=1))
    lossv[bad] = np.nan
    grad[bad] = np.nan
    return lossv, grad


def _loss_grad_tape(y, z, beta, lam):
    """Same contract as :func:`_loss_grad_batch`, from the scalar loss on a tape.

    Takes the cohort's (K, T) ``y`` and ``z`` in place of the layout and
    differentiates :func:`gapfit.model.loss` (plus the L2 penalty) one hospital
    at a time; a hospital whose evaluation turns non-finite gets NaN.
    """
    K = y.shape[0]
    lossv = np.full(K, np.nan)
    grad = np.full((K, 3), np.nan)
    for k in range(K):
        series = HospitalSeries(k, y[k], z[k])

        def objective(b):
            val = model_loss(series, b)
            if lam > 0.0:
                val = val + l2_penalty(b, lam)
            return val

        try:
            res = autodiff.gradient(objective, beta[k])
        except EvaluationError:
            continue
        lossv[k] = res.value
        grad[k] = res.gradient
    return lossv, grad


def _per_row(values, K):
    return np.array(np.broadcast_to(np.asarray(values, dtype=float), (K, 3)))


def _run_batch(y, r, z, config, shared_dims=(), eta=None, init=None,
               history=None):
    """The one driver of every cohort fit, with or without shared dimensions.

    ``config.engine`` picks the loss-and-gradient kernel.  ``shared_dims``
    holds 0-based coefficient indices that start from one common value, step
    with one common size and are averaged across active hospitals after every
    step.  ``eta`` and ``init`` may replace the config step sizes / initial
    parameters with per-hospital (K, 3) arrays.  ``history``, when a list,
    receives a copy of the (K, 3) parameters after every step.

    Returns (beta (K, 3), loss traces (K lists, the NaN steps after a row
    stopped left out), converged (K bools), steps_used (K,)).
    """
    K = y.shape[0]
    S = config.steps
    beta = _per_row(config.init.as_array() if init is None else init, K)
    eta = _per_row(config.eta if eta is None else eta, K)
    for j in shared_dims:
        # A shared dimension must start from a single common value, otherwise
        # the first post-step average looks like a loss jump against a
        # per-hospital starting point it could never honor.
        beta[:, j] = beta[:, j].mean()
        # Stepping it with hospital-specific sizes and then averaging is not a
        # descent step on the joint objective; take the most conservative one.
        eta[:, j] = eta[:, j].min()
    adam = config.method == "adam"
    if config.engine == "tape":
        loss_grad = partial(_loss_grad_tape, y, z)
    else:
        loss_grad = partial(_loss_grad_batch, _Residuals(y, r, z))
    m = np.zeros((K, 3))
    v = np.zeros((K, 3))
    trace = np.full((S + 1, K), np.nan)
    active = np.ones(K, dtype=bool)
    steps_used = np.zeros(K, dtype=int)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for s in range(S):
            lossv, grad = loss_grad(beta, config.lam)
            trace[s] = lossv
            if adam:
                m = ADAM_DECAY1 * m + (1.0 - ADAM_DECAY1) * grad
                v = ADAM_DECAY2 * v + (1.0 - ADAM_DECAY2) * grad * grad
                mh = m / (1.0 - ADAM_DECAY1 ** (s + 1))
                vh = v / (1.0 - ADAM_DECAY2 ** (s + 1))
                update = eta * mh / (np.sqrt(vh) + ADAM_EPS)
            else:
                update = eta * grad
            beta = np.where(active[:, None], beta - update, beta)
            steps_used += active
            alive = np.isfinite(beta).all(axis=1) & np.isfinite(lossv)
            active &= alive
            if shared_dims and active.any():
                for j in shared_dims:
                    beta[active, j] = beta[active, j].mean()
            if history is not None:
                history.append(beta.copy())
            if not active.any():
                break
        lossv, _ = loss_grad(beta, config.lam)
        trace[S] = lossv
    traces = [col[~np.isnan(col)].tolist() or [float("nan")]
              for col in trace.T]
    converged = [not detect_divergence(tr, b) for tr, b in zip(traces, beta)]
    if shared_dims:
        # Under a sharing constraint one hospital's own loss may rise while
        # the joint objective falls, so convergence is judged on the mean
        # loss over the hospitals that stayed finite.
        finite = [k for k, tr in enumerate(traces)
                  if np.isfinite(tr).all() and np.isfinite(beta[k]).all()]
        if finite:
            first = float(np.mean([traces[k][0] for k in finite]))
            last = float(np.mean([traces[k][-1] for k in finite]))
            for k in finite:
                converged[k] = last <= first
    return beta, traces, converged, steps_used


def jacobi_etas(cohort, config):
    """Per-hospital, per-parameter step sizes from the LOCF-imputed design.

    Scales each coordinate by the inverse diagonal of H = (2/n) X'X, the
    Hessian of the fully observed least-squares objective.
    ``config.eta_safety`` trades speed against stability; the bridged loss is
    sharper than the imputed design suggests, so values much above 0.2 can
    destabilize heavily gapped series.  Returns a (K, 3) array of step sizes.
    """
    from .benchmarks import locf_impute

    y, r, z = _batch_arrays(cohort)
    v = locf_impute(y, r)
    z = z * config.incidence_scale
    n = y.shape[1] - 1
    x = np.stack([np.ones((len(v), n)), v[:, :-1], z[:, :-1]], axis=-1)
    h = 2.0 * np.einsum("kij,kij->kj", x, x) / n
    return config.eta_safety / np.maximum(h, 1e-12)


def warm_start_inits(cohort, config):
    """Per-hospital starting points from OLS on the LOCF-imputed increments.

    Exact for fully observed noiseless series; elsewhere a starting point a
    few gradient steps from the optimum.  Series too short for the regression
    start at ``config.init``.  Returns a (K, 3) array.
    """
    from .benchmarks import _linreg_rows, locf_impute

    y, r, z = _batch_arrays(cohort)
    try:
        inits, _ = _linreg_rows(locf_impute(y, r), z * config.incidence_scale)
    except InsufficientDataError:
        return _per_row(config.init.as_array(), len(cohort))
    return inits


def _resolve_overrides(cohort, config):
    """Per-hospital (eta, init) from ``auto_eta`` and ``warm_start``, else None."""
    eta = jacobi_etas(cohort, config) if config.auto_eta else None
    init = warm_start_inits(cohort, config) if config.warm_start else None
    return eta, init


def fit_cohort(cohort, config):
    """Independent fits of every series; returns a FitResult per series.

    All series must share the same length; series with fewer than 2 reports
    raise :class:`InsufficientDataError` (use the sharing or evaluation layers
    for collect-and-flag behavior).
    """
    from .sharing import SharingSpec, fit_shared

    for s in cohort:
        if s.n_reports < 2:
            raise InsufficientDataError(f"series {s.id!r} has fewer than 2 reports")
    return fit_shared(cohort, SharingSpec(), config).results


def fit(series, config=None):
    """Fit one hospital's coefficients by gradient descent (or ADAM).

    Never mutates the series.  ``converged`` is False when any non-finite
    value appeared or the final loss exceeds the initial loss.
    """
    return fit_cohort([series], config or FitConfig())[0]
