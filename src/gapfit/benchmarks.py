"""The four comparison predictors: zero, mean, modified mean, and a linear
regression on last-observation-carried-forward imputed data.

All of them work on the LOCF-imputed series; leading missing entries are
backfilled from the first report so the imputed series keeps full length.
Each model is one row-wise function of a (K, T) cohort, which the evaluation
protocols and the optimizer's warm start call once per cohort, with no loop
over rows: the regression solves every row through one stacked QR and SVD.
The zero model predicts a zero increment everywhere and needs no function of
its own.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import InsufficientDataError

__all__ = ["BenchmarkKind", "locf_impute", "predict_mean",
           "predict_modified_mean", "fit_linreg_locf"]


class BenchmarkKind(str, Enum):
    ZERO = "zero"
    MEAN = "mean"
    MODIFIED_MEAN = "modified_mean"
    LINREG_LOCF = "linreg_locf"


def locf_impute(y, r=None):
    """Replace missing entries by the most recent report.

    ``y`` may use NaN for missing values, or an explicit mask ``r`` may be
    given.  Leading missings are backfilled from the first report.  A (K, T)
    ``y`` is imputed row by row along its last axis.  Idempotent.
    """
    y = np.asarray(y, dtype=float)
    if r is None:
        r = np.isfinite(y)
    else:
        r = np.asarray(r, dtype=bool)
    if not r.any(axis=-1).all():
        raise InsufficientDataError("cannot impute an all-missing series")
    # the latest report at or before each day; the first one before it
    first = np.argmax(r, axis=-1)[..., None]
    source = np.where(r, np.arange(y.shape[-1]), first)
    return np.take_along_axis(y, np.maximum.accumulate(source, axis=-1),
                              axis=-1)


def predict_mean(v):
    """Mean increment of each imputed row of ``v``, the final one excluded."""
    T = v.shape[-1]
    if T < 3:
        raise InsufficientDataError("mean model needs at least 3 days")
    return np.diff(v)[..., : T - 2].mean(axis=-1)


def predict_modified_mean(v):
    """Zero where a row's last pre-target increment is zero, else its mean."""
    mean = predict_mean(v)
    return np.where(v[..., -2] - v[..., -3] == 0.0, 0.0, mean)


def fit_linreg_locf(v, z):
    """Per-row OLS of the imputed ``v``'s increments on (1, v_prev, z_prev).

    ``v`` and ``z`` are (K, T).  Every row's design [X | dv] is factored at
    once by one stacked QR, and the 3 x 3 triangle R of each row is solved
    through its SVD as ``lstsq`` solves X: singular values at or below
    ``lstsq``'s cutoff, eps * (T-1) * the largest, count as zero, and a
    row with one is rank-deficient and gets the minimum-norm solution.
    Returns (coefficients (K, 3), rank-deficient (K,)).
    """
    T = v.shape[-1]
    if T < 4:
        raise InsufficientDataError("linear regression needs at least 4 days")
    a = np.empty((len(v), T - 1, 4))
    a[..., 0] = 1.0
    a[..., 1] = v[:, :-1]
    a[..., 2] = z[:, :-1]
    np.subtract(v[:, 1:], v[:, :-1], out=a[..., 3])
    f = np.linalg.qr(a, mode="r")
    u, s, vt = np.linalg.svd(f[:, :3, :3])
    kept = s > np.finfo(float).eps * (T - 1) * s[:, :1]
    # beta = V diag(1/s) U' qdy over the kept singular values
    w = np.einsum("kji,kj->ki", u, f[:, :3, 3])
    w = np.divide(w, s, out=np.zeros_like(w), where=kept)
    return np.einsum("kji,kj->ki", vt, w), ~kept.all(axis=1)
