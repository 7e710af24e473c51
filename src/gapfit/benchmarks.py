"""The four comparison predictors: zero, mean, modified mean, and a linear
regression on last-observation-carried-forward imputed data.

All of them work on the LOCF-imputed series; leading missing entries are
backfilled from the first report so the imputed series keeps full length.
The per-series functions are one-row views of row-wise array forms over a
(K, T) cohort, which the evaluation protocols and the optimizer's warm start
call once per cohort; only the regression still solves one ``lstsq`` per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InsufficientDataError
from .model import Beta

__all__ = ["BenchmarkKind", "locf_impute", "predict_zero", "predict_mean",
           "predict_modified_mean", "fit_linreg_locf", "LinregFit"]


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


def predict_zero(series):
    """The zero model: always predicts a zero increment."""
    return 0.0


def _imputed(series):
    return locf_impute(series.y, series.r)


def _mean_increments(v):
    """Mean imputed increment of each row of ``v``, the final one excluded."""
    T = v.shape[-1]
    if T < 3:
        raise InsufficientDataError("mean model needs at least 3 days")
    return np.diff(v)[..., : T - 2].mean(axis=-1)


def _modified_means(v):
    """Zero where a row's last pre-target increment is zero, else its mean."""
    mean = _mean_increments(v)
    return np.where(v[..., -2] - v[..., -3] == 0.0, 0.0, mean)


def _linreg_rows(v, z):
    """Per-row OLS of the increments of ``v`` on (1, v_prev, z_prev).

    ``v`` and ``z`` are (K, T); each row is solved by ``lstsq`` on its own
    design.  Returns (coefficients (K, 3), rank-deficient (K,)).
    """
    T = v.shape[-1]
    if T < 4:
        raise InsufficientDataError("linear regression needs at least 4 days")
    target = np.diff(v)
    design = np.stack([np.ones_like(target), v[:, :-1], z[:, :-1]], axis=-1)
    coefs = np.empty((len(v), 3))
    deficient = np.empty(len(v), dtype=bool)
    for k, (x, dy) in enumerate(zip(design, target)):
        coefs[k], _, rank, _ = np.linalg.lstsq(x, dy, rcond=None)
        deficient[k] = rank < 3
    return coefs, deficient


def predict_mean(series):
    """Mean of the imputed increments, excluding the final (target) increment."""
    return float(_mean_increments(_imputed(series)))


def predict_modified_mean(series):
    """Zero when the last pre-target imputed increment is zero, else the mean."""
    return float(_modified_means(_imputed(series)))


@dataclass
class LinregFit:
    beta: Beta
    rank_deficient: bool

    def predict_increment(self, y_prev, z_prev):
        return self.beta.b1 + self.beta.b2 * y_prev + self.beta.b3 * z_prev


def fit_linreg_locf(series):
    """Ordinary least squares of imputed increments on (1, y_prev, z_prev).

    Solved in closed form; rank-deficient designs get the minimum-norm
    solution and are flagged.
    """
    coefs, deficient = _linreg_rows(_imputed(series)[None], series.z[None])
    return LinregFit(beta=Beta.from_array(coefs[0]),
                     rank_deficient=bool(deficient[0]))
