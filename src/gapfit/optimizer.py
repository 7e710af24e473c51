"""Gradient-descent and ADAM fitting of the increment model.

One driver, :func:`_run_batch`, runs the GD/ADAM updates, divergence masking
and parameter sharing for a whole cohort.  It takes the loss and gradient of
every hospital from one of two kernels with the same contract:

* ``batch`` (default): a numpy-vectorized forward-sensitivity recursion that
  propagates the three per-parameter sensitivities alongside the carried state.
  It evaluates whole cohorts at once and is the engine behind cohort-scale
  experiments; the test suite pins it against the tape engine and against
  finite differences.
* ``tape``: the reverse-mode autodiff engine from :mod:`gapfit.autodiff`,
  differentiating :func:`gapfit.model.loss` row by row.  It is the reference
  the batch kernel is checked against.

Both engines are deterministic: identical inputs produce bit-identical fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff
from .errors import EvaluationError, InsufficientDataError, UsageError
from .model import Beta, HospitalSeries, loss as model_loss

__all__ = ["FitConfig", "FitResult", "fit", "fit_cohort", "l2_penalty",
           "detect_divergence", "jacobi_etas", "warm_start_inits"]


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
    adam_decay1: float = 0.9
    adam_decay2: float = 0.999
    adam_eps: float = 1e-8
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
    fell_back: bool


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
# batched forward-sensitivity engine


def _batch_arrays(cohort):
    T = cohort[0].T
    for s in cohort:
        if s.T != T:
            raise UsageError("cohort series must share the same length")
    y = np.stack([s.y for s in cohort])
    z = np.stack([s.z for s in cohort])
    r = np.stack([s.r for s in cohort])
    return y, r, z


def _loss_grad_batch(y, r, z, beta, lam):
    """Loss and gradient for every hospital at once.

    ``beta`` is (K, 3).  Propagates d(state)/d(beta) through the carry-forward
    recursion, which is exactly the derivative of the executed path of the
    scalar loss.  Returns (loss (K,), grad (K, 3)).
    """
    K, T = y.shape
    b1, b2, b3 = beta[:, 0], beta[:, 1], beta[:, 2]
    seen = r[:, 0].copy()
    ly = np.where(seen, y[:, 0], 0.0)
    d0 = np.zeros(K)
    d1 = np.zeros(K)
    d2 = np.zeros(K)
    sqe = np.zeros(K)
    g0 = np.zeros(K)
    g1 = np.zeros(K)
    g2 = np.zeros(K)
    cnt = np.zeros(K)
    for t in range(1, T):
        zt = z[:, t - 1]
        pred = b1 + b2 * ly + b3 * zt
        dp0 = 1.0 + b2 * d0
        dp1 = ly + b2 * d1
        dp2 = zt + b2 * d2
        rt = r[:, t]
        score = seen & rt
        yt = y[:, t]
        resid = np.where(score, pred - (yt - ly), 0.0)
        sqe += resid * resid
        cnt += score
        two_r = 2.0 * resid
        g0 += two_r * np.where(score, dp0 + d0, 0.0)
        g1 += two_r * np.where(score, dp1 + d1, 0.0)
        g2 += two_r * np.where(score, dp2 + d2, 0.0)
        carried = seen & ~rt
        ly = np.where(rt, yt, np.where(seen, ly + pred, ly))
        d0 = np.where(carried, d0 + dp0, 0.0)
        d1 = np.where(carried, d1 + dp1, 0.0)
        d2 = np.where(carried, d2 + dp2, 0.0)
        seen = seen | rt
    lossv = sqe / cnt
    grad = np.stack([g0 / cnt, g1 / cnt, g2 / cnt], axis=1)
    if lam > 0.0:
        lossv = lossv + lam * (b1 * b1 + b2 * b2 + b3 * b3)
        grad = grad + (2.0 * lam) * beta
    return lossv, grad


def _loss_grad_tape(y, r, z, beta, lam):
    """Same contract as :func:`_loss_grad_batch`, from the scalar loss on a tape.

    Differentiates :func:`gapfit.model.loss` (plus the L2 penalty) one hospital
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


def _run_batch(y, r, z, config, shared_dims=(), eta=None, init=None,
               history=None):
    """Shared driver for independent and parameter-sharing fits.

    ``config.engine`` picks the loss-and-gradient kernel.  ``shared_dims``
    holds 0-based coefficient indices averaged across active hospitals after
    every step.  ``eta`` and ``init`` may override the config step sizes /
    initial parameters with per-hospital (K, 3) arrays.
    ``history``, when a list, receives a copy of the (K, 3) parameters after
    every step.

    Returns (beta (K, 3), trace (S+1, K), active (K,), steps_used (K,)).
    """
    K = y.shape[0]
    S = config.steps
    if init is None:
        beta = np.tile(config.init.as_array(), (K, 1))
    else:
        beta = np.array(np.broadcast_to(np.asarray(init, dtype=float), (K, 3)))
    # A shared dimension must start from a single common value, otherwise the
    # first post-step average looks like a loss jump against a per-hospital
    # starting point it could never honor.
    for j in shared_dims:
        beta[:, j] = beta[:, j].mean()
    if eta is None:
        eta = np.asarray(config.eta, dtype=float)
    else:
        eta = np.asarray(eta, dtype=float)
    adam = config.method == "adam"
    loss_grad = _loss_grad_tape if config.engine == "tape" else _loss_grad_batch
    m = np.zeros((K, 3))
    v = np.zeros((K, 3))
    trace = np.full((S + 1, K), np.nan)
    active = np.ones(K, dtype=bool)
    steps_used = np.zeros(K, dtype=int)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for s in range(S):
            lossv, grad = loss_grad(y, r, z, beta, config.lam)
            trace[s] = lossv
            if adam:
                m = config.adam_decay1 * m + (1.0 - config.adam_decay1) * grad
                v = config.adam_decay2 * v + (1.0 - config.adam_decay2) * grad * grad
                mh = m / (1.0 - config.adam_decay1 ** (s + 1))
                vh = v / (1.0 - config.adam_decay2 ** (s + 1))
                update = eta * mh / (np.sqrt(vh) + config.adam_eps)
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
        lossv, _ = loss_grad(y, r, z, beta, config.lam)
        trace[S] = lossv
    return beta, trace, active, steps_used


def _result_from_batch(beta_row, trace_col, steps_used):
    tr = [float(x) for x in trace_col if not math.isnan(x)] or [float("nan")]
    converged = not detect_divergence(tr, beta_row)
    return FitResult(
        beta=Beta.from_array(beta_row),
        loss_trace=tr,
        converged=converged,
        steps_used=int(steps_used),
        fell_back=not converged,
    )


def jacobi_etas(cohort, config, safety=0.2):
    """Per-hospital, per-parameter step sizes from the LOCF-imputed design.

    Scales each coordinate by the inverse diagonal of H = (2/n) X'X, the
    Hessian of the fully observed least-squares objective.  ``safety`` trades
    speed against stability; the bridged loss is sharper than the imputed
    design suggests, so values much above 0.2 can destabilize heavily gapped
    series.  Returns a (K, 3) array for :func:`fit_cohort`'s ``eta``.
    """
    from .benchmarks import locf_impute

    if safety <= 0:
        raise UsageError("safety must be positive")
    etas = np.empty((len(cohort), 3))
    for k, s in enumerate(cohort):
        y = locf_impute(s.y)
        z = s.z * config.incidence_scale
        x = np.column_stack([np.ones(s.T - 1), y[:-1], z[:-1]])
        h = 2.0 * np.einsum("ij,ij->j", x, x) / (s.T - 1)
        etas[k] = safety / np.maximum(h, 1e-12)
    return etas


def warm_start_inits(cohort, config):
    """Per-hospital starting points from OLS on the LOCF-imputed increments.

    Exact for fully observed noiseless series; elsewhere a starting point a
    few gradient steps from the optimum.  Returns a (K, 3) array for
    :func:`fit_cohort`'s ``init``.
    """
    from .benchmarks import fit_linreg_locf

    inits = np.empty((len(cohort), 3))
    for k, s in enumerate(cohort):
        try:
            lr = fit_linreg_locf(s.with_scaled_z(config.incidence_scale))
        except InsufficientDataError:
            inits[k] = config.init.as_array()
            continue
        inits[k] = lr.beta.as_array()
    return inits


def _resolve_overrides(cohort, config, eta, init):
    if eta is None and config.auto_eta:
        eta = jacobi_etas(cohort, config, config.eta_safety)
    if init is None and config.warm_start:
        init = warm_start_inits(cohort, config)
    return eta, init


def fit_cohort(cohort, config, eta=None, init=None):
    """Independent batched fits of every series; returns a FitResult per series.

    All series must share the same length; series with fewer than 2 reports
    raise :class:`InsufficientDataError` (use the sharing or evaluation layers
    for collect-and-flag behavior).
    """
    for s in cohort:
        if s.n_reports < 2:
            raise InsufficientDataError(f"series {s.id!r} has fewer than 2 reports")
    scaled = [s.with_scaled_z(config.incidence_scale) for s in cohort]
    eta, init = _resolve_overrides(cohort, config, eta, init)
    y, r, z = _batch_arrays(scaled)
    beta, trace, active, steps_used = _run_batch(y, r, z, config, eta=eta,
                                                 init=init)
    return [
        _result_from_batch(beta[k], trace[:, k], steps_used[k])
        for k in range(len(cohort))
    ]


def fit(series, config=None):
    """Fit one hospital's coefficients by gradient descent (or ADAM).

    Never mutates the series.  ``converged`` is False when any non-finite
    value appeared or the final loss exceeds the initial loss.
    """
    return fit_cohort([series], config or FitConfig())[0]
