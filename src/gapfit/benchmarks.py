"""The four comparison predictors: zero, mean, modified mean, and a linear
regression on last-observation-carried-forward imputed data.

All of them work on the LOCF-imputed series; leading missing entries are
backfilled from the first report so the imputed series keeps full length.
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
    given.  Leading missings are backfilled from the first report.  Idempotent.
    """
    y = np.asarray(y, dtype=float)
    if r is None:
        r = np.isfinite(y)
    else:
        r = np.asarray(r, dtype=bool)
    if not r.any():
        raise InsufficientDataError("cannot impute an all-missing series")
    # the latest report at or before each day; the first one before it
    source = np.where(r, np.arange(len(y)), int(np.argmax(r)))
    return y[np.maximum.accumulate(source)]


def predict_zero(series):
    """The zero model: always predicts a zero increment."""
    return 0.0


def _imputed(series):
    return locf_impute(series.y, series.r)


def predict_mean(series):
    """Mean of the imputed increments, excluding the final (target) increment."""
    v = _imputed(series)
    T = len(v)
    if T < 3:
        raise InsufficientDataError("mean model needs at least 3 days")
    return float(np.diff(v)[: T - 2].mean())


def predict_modified_mean(series):
    """Zero when the last pre-target imputed increment is zero, else the mean."""
    v = _imputed(series)
    if len(v) < 3:
        raise InsufficientDataError("modified mean model needs at least 3 days")
    if v[-2] - v[-3] == 0.0:
        return 0.0
    return predict_mean(series)


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
    v = _imputed(series)
    T = len(v)
    if T < 4:
        raise InsufficientDataError("linear regression needs at least 4 days")
    target = np.diff(v)
    design = np.column_stack([np.ones(T - 1), v[:-1], series.z[:-1]])
    coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    return LinregFit(beta=Beta.from_array(coef), rank_deficient=rank < 3)
