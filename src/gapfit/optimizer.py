"""Gradient-descent and ADAM fitting of the increment model.

There is one cohort fit path: :func:`fit` and :func:`fit_cohort` call
:func:`gapfit.sharing.fit_shared` with no shared dimension, and
``fit_shared`` calls the one driver, :func:`_run_batch`.  The driver runs the
GD/ADAM updates, divergence masking and convergence judgement for a whole
cohort, and it owns every rule of a shared dimension: a common start, a
common step size, an average after every step and a convergence test on the
joint loss.  It takes the loss and gradient of every hospital from one
gap-aware numpy kernel over the cohort, :func:`_loss_grad_batch`.  Once per
set of rows, :class:`_Residuals` splits the scored residuals by whether the
previous day was reported.  Those that follow a report are linear in beta,
and one QR factor per hospital scores them in O(1) per step.  Those that
close a gap are flattened into segments and bridged one gap depth at a time,
carrying the state and its three forward sensitivities d(state)/d(beta).
The test suite pins this kernel, alone and through the driver, to the
reverse-mode tape of :func:`gapfit.model.loss` and to finite differences.
That oracle, its L2 penalty and the per-row divergence rule live in
``tests/conftest.py``; no fit uses the tape engine.

The kernel is deterministic, and a hospital's result does not depend on which
other hospitals share its batch: identical inputs produce bit-identical fits.
A row whose loss or gradient turns non-finite gets NaN.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InsufficientDataError, UsageError
from .model import Beta, Cohort

__all__ = ["FitConfig", "FitResult", "fit", "fit_cohort", "jacobi_etas",
           "warm_start_inits"]


# ADAM's moment decay rates and denominator guard, at their usual values.
ADAM_DECAY1 = 0.9
ADAM_DECAY2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class FitConfig:
    """Hyperparameters for one fit; every field is a CLI flag.

    ``eta`` holds per-parameter step sizes; the default keeps the incidence
    coefficient's step an order of magnitude below the others.  ``incidence_scale``
    is applied to z before fitting (and must be applied identically when
    predicting with the resulting coefficients).

    ``auto_eta`` replaces ``eta`` with per-hospital steps from
    :func:`jacobi_etas` (scaled by ``eta_safety``); ``warm_start`` replaces
    the zero start with per-hospital OLS starts from :func:`warm_start_inits`.
    :func:`_setup` builds both; other starts go to ``fit_shared(setup=)``.
    """

    eta: tuple = (1e-3, 1e-3, 1e-4)
    steps: int = 1000
    lam: float = 0.0
    method: str = "gd"
    incidence_scale: float = 0.01
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


# ---------------------------------------------------------------------------
# gap-aware batch kernel


class _Residuals:
    """The scored residuals of a cohort, laid out once per set of rows.

    A residual on day t whose previous day was reported is (1, y[t-1],
    z[t-1]) . beta - dy[t], dy[t] = y[t] - y[t-1].  Those rows of a hospital,
    zero elsewhere and at least 4, make [X | dy], whose QR factor
    [[R, qdy], [0, rho]] gives ||X beta - dy||^2 = ||R beta - qdy||^2 + rho^2.
    ``R`` is (3, 3, K), ``qdy`` (3, K) and ``rss`` = rho^2 (K,), the
    projection residual as the reflections form it, never ||dy||^2 minus
    ||qdy||^2; the normal equations would square X's condition and cancel
    at a noiseless optimum (losses of 1e-30).  Nothing is solved, so a
    rank-deficient row needs no special case, and each row is factored
    alone.  Every other scored residual closes a gap segment: a report on
    day t after the last report on day t0 < t-1, with depth g = t-1-t0
    carried steps.  Segments are sorted deepest first (stable on hospital,
    day), so the ones still carrying at depth j are the prefix of length
    ``len(z_depth[j])``.  ``bins`` repeats their hospitals four times, the
    i-th copy offset by i * K, so one ``bincount`` sums the loss and the
    three gradient terms of every hospital.
    """

    def __init__(self, y, r, z):
        K, T = y.shape
        direct = r[:, 1:] & r[:, :-1]
        m = direct.shape[1]
        cols = (1.0, y[:, :-1], z[:, :-1], y[:, 1:] - y[:, :-1])
        a = np.zeros((K, max(m, 4), 4))
        for j, col in enumerate(cols):
            a[:, :m, j] = np.where(direct, col, 0.0)
        f = np.ascontiguousarray(np.linalg.qr(a, mode="r").transpose(1, 2, 0))
        self.R = np.ascontiguousarray(f[:3, :3])
        self.qdy, self.rss = f[:3, 3], f[3, 3] * f[3, 3]
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
        self.bins = (hosp + K * np.arange(4)[:, None]).ravel()


def _loss_grad_batch(res, beta, lam):
    """Loss and gradient for every hospital at once.

    ``res`` is the cohort's :class:`_Residuals` and ``beta`` is (K, 3).  Gap
    segments carry the bridged state and its forward sensitivities
    d(state)/d(beta), exactly the derivative of the executed path of
    :func:`gapfit.model.loss`.  A row whose loss or gradient is non-finite
    gets NaN, as from the tape engine.  Returns (loss (K,), grad (K, 3)).
    """
    K = beta.shape[0]
    # the after-report residuals: ||R beta - qdy||^2 + rss (see _Residuals)
    u = (res.R * beta.T).sum(axis=1) - res.qdy
    sqe = (u * u).sum(axis=0) + res.rss
    g = (res.R * u[:, None]).sum(axis=0)
    if res.hosp.size:
        c1, c2, c3 = np.ascontiguousarray(beta.T).take(res.hosp, axis=1)
        x = res.anchor.copy()
        d = np.zeros((3, len(x)))
        growth = 1.0 + c2
        for zj in res.z_depth:
            # one carried day for the first n segments, in place:
            # (d0, d1, d2) <- growth*(d0, d1, d2) + (1, state, z), then
            # state <- growth*state + b1 + b3*z
            n = len(zj)
            gn, xn, dn = growth[:n], x[:n], d[:, :n]
            dn *= gn
            dn[0] += 1.0
            dn[1] += xn
            dn[2] += zj
            xn *= gn
            xn += c1[:n]
            xn += c3[:n] * zj
        e = c1 + c2 * x + c3 * res.z_last - (res.target - x)
        # e^2 and e * de/d(beta), summed per hospital in one pass
        w = np.empty((4, len(x)))
        np.multiply(e, e, out=w[0])
        de = np.multiply(growth, d, out=w[1:])
        de[0] += 1.0
        de[1] += x
        de[2] += res.z_last
        de *= e
        sums = np.bincount(res.bins, w.ravel(), 4 * K).reshape(4, K)
        sqe += sums[0]
        g += sums[1:]
    lossv = sqe / res.count
    grad = (g * (2.0 / res.count)).T
    if lam > 0.0:
        lossv = lossv + lam * (beta * beta).sum(axis=1)
        grad = grad + (2.0 * lam) * beta
    bad = ~(np.isfinite(lossv) & np.isfinite(grad).all(axis=1))
    lossv[bad] = np.nan
    grad[bad] = np.nan
    return lossv, grad


def _run_batch(y, r, config, shared_dims, setup):
    """The one driver of every cohort fit, with or without shared dimensions.

    ``setup`` is the rows' :func:`_setup`, read only: a shared dimension
    rewrites copies of its step sizes and starts.  ``shared_dims`` holds
    0-based coefficient indices that start from one common value, step with
    one common size and are averaged across active hospitals after every step.

    Returns (beta (K, 3), trace (S+1, K) of losses, finite until a row
    stopped and NaN after, converged (K,) bools, steps_used (K,)).
    """
    K = y.shape[0]
    S = config.steps
    eta, beta, res = setup
    eta, beta = np.array(eta, dtype=float), np.array(beta, dtype=float)
    for j in shared_dims:
        # A shared dimension must start from a single common value, otherwise
        # the first post-step average looks like a loss jump against a
        # per-hospital starting point it could never honor.
        beta[:, j] = beta[:, j].mean()
        # Stepping it with hospital-specific sizes and then averaging is not a
        # descent step on the joint objective; take the most conservative one.
        eta[:, j] = eta[:, j].min()
    adam = config.method == "adam"
    loss_grad = partial(_loss_grad_batch, res)
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
            if not active.any():
                break
        lossv, _ = loss_grad(beta, config.lam)
        trace[S] = lossv
    converged = _judge_convergence(trace, beta, bool(shared_dims))
    return beta, trace, converged, steps_used


def _judge_convergence(trace, beta, shared):
    """Which rows of a fit converged, as a (K,) mask.

    ``trace`` is the driver's (S+1, K) loss array, NaN where a row recorded
    no loss, and ``beta`` the final (K, 3) parameters.  A row converged if
    it recorded a loss, every recorded loss and coefficient is finite, and
    its last recorded loss is at or below its first.  Under a sharing
    constraint one hospital's own loss may rise while the joint objective
    falls, so there the test compares the mean first and mean last losses
    over the finite rows instead.
    """
    recorded = ~np.isnan(trace)
    cols = np.arange(trace.shape[1])
    first = trace[recorded.argmax(axis=0), cols]
    last = trace[len(trace) - 1 - recorded[::-1].argmax(axis=0), cols]
    finite = (recorded.any(axis=0) & ~np.isinf(trace).any(axis=0)
              & np.isfinite(beta).all(axis=1))
    if shared and finite.any():
        return finite & (np.mean(last[finite]) <= np.mean(first[finite]))
    return finite & (last <= first)


def jacobi_etas(v, z, config):
    """Per-hospital, per-parameter step sizes from the LOCF-imputed design.

    ``v`` is the cohort's (K, T) LOCF-imputed counts and ``z`` its incidence,
    already multiplied by ``config.incidence_scale``.  Scales each coordinate
    by the inverse diagonal of H = (2/n) X'X, the Hessian of the fully
    observed least-squares objective.  ``config.eta_safety`` trades speed
    against stability; the bridged loss is sharper than the imputed design
    suggests, so values much above 0.2 can destabilize heavily gapped
    series.  Returns a (K, 3) array of step sizes.
    """
    n = v.shape[1] - 1
    x = np.stack([np.ones((len(v), n)), v[:, :-1], z[:, :-1]], axis=-1)
    h = 2.0 * np.einsum("kij,kij->kj", x, x) / n
    return config.eta_safety / np.maximum(h, 1e-12)


def warm_start_inits(v, z):
    """Per-hospital starting points from OLS on the LOCF-imputed increments.

    Takes the same arrays as :func:`jacobi_etas`.  Exact for fully observed
    noiseless series; elsewhere a starting point a few gradient steps from
    the optimum.  Series too short for the regression start at zero.
    Returns a (K, 3) array.
    """
    from .benchmarks import fit_linreg_locf

    try:
        return fit_linreg_locf(v, z)[0]
    except InsufficientDataError:
        return np.zeros((len(v), 3))


def _setup(cohort, config):
    """(eta, init, layout) for a fit of the rows of ``cohort`` under any
    spec: the (K, 3) step sizes and starts and the :class:`_Residuals`.  z is
    scaled once, and the rows are LOCF-imputed once for :func:`jacobi_etas`
    under ``auto_eta`` and :func:`warm_start_inits` under ``warm_start``;
    else every row takes ``config.eta`` and starts at zero."""
    from .benchmarks import locf_impute

    y, r, z = cohort.y, cohort.r, cohort.z * config.incidence_scale
    layout = _Residuals(y, r, z)  # before the imputed rows, for peak memory
    v = locf_impute(y, r) if config.auto_eta or config.warm_start else None
    eta = (jacobi_etas(v, z, config) if config.auto_eta
           else np.tile(config.eta, (len(y), 1)))
    init = warm_start_inits(v, z) if config.warm_start else np.zeros((len(y), 3))
    return eta, init, layout


def fit_cohort(cohort, config):
    """Independent fits of every row of a :class:`~gapfit.model.Cohort`;
    returns a FitResult per row.

    All rows must cover the same days; a row with fewer than 2 reports
    raises :class:`InsufficientDataError`, as in
    :func:`gapfit.sharing.fit_shared`.
    """
    from .sharing import SharingSpec, fit_shared

    return fit_shared(cohort, SharingSpec(), config).results


def fit(series, config=None):
    """Fit one hospital's coefficients by gradient descent (or ADAM).

    Never mutates the series.  ``converged`` is False when any non-finite
    value appeared or the final loss exceeds the initial loss.
    """
    return fit_cohort(Cohort.from_series([series]), config or FitConfig())[0]
