"""Gap-bridging increment regression model.

One hospital's prevalent-case series is modeled through its day-to-day
increments: the predicted increment for day t+1 is

    dy_hat[t+1] = b1 + b2 * y_tilde[t] + b3 * z[t]

where ``y_tilde`` is the reported value whenever a report exists and otherwise
the previous state plus the model's own predicted increment.  Missing reports
are thereby bridged by carrying the model forward instead of imputing, and the
loss scores only days with an actual report.

The recursion is written twice, once per number type.
:func:`predict_trajectory` is the float bridge: one day loop over a whole
(K, T) cohort, which every float consumer calls.  :func:`_bridge` walks one
series in plain Python so that it also runs on DiffScalars; only :func:`loss`
uses it, as the reference the tape engine differentiates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, UsageError

__all__ = ["HospitalSeries", "Beta", "loss", "predict_trajectory",
           "expand_gap"]


@dataclass(frozen=True)
class Beta:
    """The three regression coefficients.

    b1: intercept (cases/day), b2: per prevalent case per day, b3: per incident
    case per day.
    """

    b1: float = 0.0
    b2: float = 0.0
    b3: float = 0.0

    def as_array(self):
        return np.array([self.b1, self.b2, self.b3], dtype=float)

    @classmethod
    def from_array(cls, a):
        return cls(float(a[0]), float(a[1]), float(a[2]))


class HospitalSeries:
    """One hospital's reports over T days.

    ``y`` holds the prevalent ICU cases with NaN for days without a report,
    ``z`` the (complete) daily incidence covariate, and ``r`` is derived as
    r[t] = 1 iff y[t] is present.  Fewer than 2 days or no report at all
    raise :class:`InsufficientDataError`; mismatched shapes, a non-finite or
    negative ``z`` and a negative report raise :class:`UsageError`.
    """

    __slots__ = ("id", "y", "z", "r")

    def __init__(self, id, y, z):
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        if y.ndim != 1 or z.ndim != 1 or len(y) != len(z):
            raise UsageError("y and z must be 1-d sequences of equal length")
        if len(y) < 2:
            raise InsufficientDataError("a series needs at least 2 days")
        if not np.all(np.isfinite(z)):
            raise UsageError("incidence covariate must be complete and finite")
        if np.any(z < 0):
            raise UsageError("incidence must be nonnegative")
        observed = np.isfinite(y)
        if np.any(y[observed] < 0):
            raise UsageError("reported case counts must be nonnegative")
        if not observed.any():
            raise InsufficientDataError("a series needs at least one report")
        self.id = str(id)
        self.y = y
        self.z = z
        self.r = observed

    @property
    def T(self):
        return len(self.y)

    @property
    def n_reports(self):
        return int(self.r.sum())

    def window(self, start, stop):
        """Copy restricted to days start..stop (1-based, inclusive)."""
        return HospitalSeries(self.id, self.y[start - 1:stop].copy(),
                              self.z[start - 1:stop].copy())

    def with_scaled_z(self, scale):
        if scale == 1.0:
            return self
        return HospitalSeries(self.id, self.y, self.z * scale)


def _coefs(beta):
    if isinstance(beta, Beta):
        return beta.b1, beta.b2, beta.b3
    b1, b2, b3 = beta
    return b1, b2, b3


def _bridge(series, beta):
    """Run the carry-forward recursion once over the whole series.

    Returns ``(first, states, preds)``: ``first`` is the 0-based first
    reported day, ``states[i]`` the bridged state on day ``first + i`` and
    ``preds[i]`` the predicted increment into day ``first + 1 + i``.  Works on
    plain floats and DiffScalars alike; :func:`loss` is its only caller, and
    float callers use :func:`predict_trajectory`.
    """
    b1, b2, b3 = _coefs(beta)
    # Plain-float views keep numpy scalar types out of DiffScalar arithmetic.
    y, z, r = series.y.tolist(), series.z.tolist(), series.r.tolist()
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


def loss(series, beta):
    """Masked mean squared error of predicted increments.

    Leading missing days are skipped; from the first report to the last the
    model predicts each day's increment, scores the squared residual on
    reported days, and carries its own prediction forward on missing days.
    Returns the summed squared error divided by the number of scored
    residuals.

    ``beta`` may hold plain floats or DiffScalars, so the same code serves as
    the differentiated loss.
    """
    if series.n_reports < 2:
        raise InsufficientDataError(
            f"series {series.id!r} has fewer than 2 reports")
    # Nothing is scored after the last report, so the bridge stops there.
    stop = series.T - int(np.argmax(series.r[::-1]))
    if stop < series.T:
        series = series.window(1, stop)
    first, states, preds = _bridge(series, beta)
    y, r = series.y[first + 1:].tolist(), series.r[first + 1:].tolist()
    sqerror = 0.0
    contribno = 0
    for yt, rt, prev, pred in zip(y, r, states, preds):
        if rt:
            diff = pred - (yt - prev)
            sqerror = sqerror + diff * diff
            contribno += 1
    return sqerror / contribno


def predict_trajectory(y, r, z, beta):
    """The carry-forward recursion over a whole cohort, one day at a time.

    ``y``, ``r`` and ``z`` are (K, T) arrays (reports, report mask, covariate)
    and ``beta`` is (K, 3).  Returns ``(y_tilde, dy_hat)``, both (K, T):
    ``y_tilde[k, t]`` is the report when present and otherwise the previous
    state plus ``dy_hat[k, t]``, the predicted increment into day t.  Both
    are NaN before a row's first report, and ``dy_hat`` also on that day.
    Day t reads only days up to t, so right-padding a row with unreported
    days leaves its own days unchanged.
    """
    y = np.asarray(y, dtype=float)
    r = np.asarray(r, dtype=bool)
    z = np.asarray(z, dtype=float)
    beta = np.asarray(beta, dtype=float)
    b1, b2, b3 = beta[:, 0], beta[:, 1], beta[:, 2]
    y_tilde = np.full(y.shape, np.nan)
    dy_hat = np.full(y.shape, np.nan)
    state = np.where(r[:, 0], y[:, 0], np.nan)
    y_tilde[:, 0] = state
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, y.shape[1]):
            pred = b1 + b2 * state + b3 * z[:, t - 1]
            state = np.where(r[:, t], y[:, t], state + pred)
            dy_hat[:, t] = pred
            y_tilde[:, t] = state
    return y_tilde, dy_hat


def expand_gap(y_anchor, z_window, beta, gap_len):
    """Predicted increment after ``gap_len`` carried steps, in closed form.

    Explicit polynomial expansion of the carry-forward recursion: starting from
    state ``y_anchor``, after g missing days the state is

        a*(1+b2)^g + sum_j (1+b2)^(g-1-j) * (b1 + b3*z[j])

    and the returned value is the next predicted increment from that state.
    ``z_window`` must supply the gap_len+1 covariate values consumed along the
    way.  Agrees exactly with the recursion in :func:`predict_trajectory`.
    """
    if gap_len < 0:
        raise ValueError("gap_len must be >= 0")
    if len(z_window) != gap_len + 1:
        raise ValueError("z_window must have gap_len + 1 entries")
    b1, b2, b3 = _coefs(beta)
    growth = 1.0 + b2
    state = y_anchor * growth ** gap_len
    for j in range(gap_len):
        state += growth ** (gap_len - 1 - j) * (b1 + b3 * z_window[j])
    return b1 + b2 * state + b3 * z_window[gap_len]
