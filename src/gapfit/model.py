"""Gap-bridging increment regression model.

One hospital's prevalent-case series is modeled through its day-to-day
increments: the predicted increment for day t+1 is

    dy_hat[t+1] = b1 + b2 * y_tilde[t] + b3 * z[t]

where ``y_tilde`` is the reported value whenever a report exists and otherwise
the previous state plus the model's own predicted increment.  Missing reports
are thereby bridged by carrying the model forward instead of imputing, and the
loss scores only days with an actual report.

A :class:`Cohort` holds K hospitals as one record of (K, T) arrays, the one
form of a cohort; a :class:`HospitalSeries` is one row.

The recursion is written once, as the day step :func:`_day`: over a (K, T)
cohort of floats in :func:`predict_trajectory`, and in :func:`loss` over one
series or a cohort, on floats or on the tape values that differentiate it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff
from .errors import InsufficientDataError, UsageError

__all__ = ["HospitalSeries", "Cohort", "Beta", "loss", "predict_trajectory",
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


def _check_rows(ids, y, z, days):
    """The report mask of (K, T) ``y``.  The first row that is not a valid
    series raises :class:`InsufficientDataError` (fewer than 2 days, or no
    report) or :class:`UsageError`, naming its id."""
    observed = np.isfinite(y)
    for bad, error, message in (
            (days < 2, InsufficientDataError, "a series needs at least 2 days"),
            (~np.isfinite(z).all(axis=1), UsageError,
             "incidence covariate must be complete and finite"),
            ((z < 0).any(axis=1), UsageError, "incidence must be nonnegative"),
            (np.isinf(y).any(axis=1), UsageError,
             "reported case counts must be finite"),
            ((observed & (y < 0)).any(axis=1), UsageError,
             "reported case counts must be nonnegative"),
            (~observed.any(axis=1), InsufficientDataError,
             "a series needs at least one report")):
        if bad.any():
            raise error(f"{message}: {ids[int(np.argmax(bad))]!r}")
    return observed


class HospitalSeries:
    """One hospital's reports over T days.

    ``y`` holds the prevalent ICU cases with NaN for days without a report,
    ``z`` the (complete) daily incidence covariate, and ``r`` is derived as
    r[t] = 1 iff y[t] is present.  Fewer than 2 days or no report at all
    raise :class:`InsufficientDataError`; mismatched shapes, a non-finite or
    negative ``z`` and an infinite or negative report raise
    :class:`UsageError`.
    """

    __slots__ = ("id", "y", "z", "r")

    def __init__(self, id, y, z):
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        if y.ndim != 1 or z.ndim != 1 or len(y) != len(z):
            raise UsageError("y and z must be 1-d sequences of equal length")
        self.id = str(id)
        self.y = y
        self.z = z
        self.r = _check_rows([self.id], y[None], z[None], np.array([len(y)]))[0]

    @property
    def T(self):
        return len(self.y)

    @property
    def n_reports(self):
        return int(self.r.sum())

    def with_scaled_z(self, scale):
        if scale == 1.0:
            return self
        return HospitalSeries(self.id, self.y, self.z * scale)


@dataclass(frozen=True, eq=False)
class Cohort:
    """K hospitals' series as one record of right-padded (K, T) arrays.

    ``days`` is each row's own number of days (all T by default).  ``y``
    holds the reports, NaN where there is none and on a row's padding, ``z``
    the incidence, 0.0 on the padding, and ``r`` the report mask.  The arrays
    are read-only copies.  Each row is checked as a :class:`HospitalSeries`
    is, and ``cohort[k]`` is row k as one.
    """

    ids: tuple
    y: np.ndarray
    z: np.ndarray
    days: np.ndarray = None
    r: np.ndarray = field(init=False)

    def __post_init__(self):
        ids = tuple(map(str, self.ids))
        y = np.array(self.y, dtype=float)
        z = np.array(self.z, dtype=float)
        if y.ndim != 2 or y.shape != z.shape or len(y) != len(ids):
            raise UsageError("y and z must be (K, T) arrays, one row per id")
        days = np.array([y.shape[1]] * len(ids) if self.days is None
                        else self.days, int)
        if days.shape != (len(ids),) or np.any(days > y.shape[1]):
            raise UsageError("days must give each row a length within y")
        T = int(days.max(initial=0))
        y, z = y[:, :T], z[:, :T]
        pad = np.arange(T) >= days[:, None]
        y[pad], z[pad] = np.nan, 0.0
        r = _check_rows(ids, y, z, days)
        for name, value in zip(("ids", "y", "z", "days", "r"),
                               (ids, y, z, days, r)):
            object.__setattr__(self, name, value)
            if name != "ids":
                value.flags.writeable = False

    @classmethod
    def from_series(cls, series):
        """The cohort of a sequence of :class:`HospitalSeries`, in order."""
        series = list(series)
        days = [s.T for s in series]
        y = np.full((len(series), max(days, default=0)), np.nan)
        z = np.zeros(y.shape)
        for k, s in enumerate(series):
            y[k, :s.T], z[k, :s.T] = s.y, s.z
        return cls([s.id for s in series], y, z, days)

    def __len__(self):
        return len(self.ids)

    def __getitem__(self, k):
        k = range(len(self))[k]
        n = self.days[k]
        return HospitalSeries(self.ids[k], self.y[k, :n], self.z[k, :n])

    @property
    def n_reports(self):
        return self.r.sum(axis=1)

    @property
    def T(self):
        """The number of days of every row; rows of different lengths raise
        :class:`UsageError`."""
        odd = np.flatnonzero(self.days != self.days[:1])
        if odd.size:
            k = odd[0]
            raise UsageError(
                f"cohort series must share the same length: {self.ids[k]!r} "
                f"has {self.days[k]} days, {self.ids[0]!r} has {self.days[0]}")
        return self.y.shape[1]

    def take(self, rows):
        """The cohort of the given rows (indices or a mask), in that order."""
        rows = np.arange(len(self))[rows]
        return Cohort([self.ids[k] for k in rows], self.y[rows],
                      self.z[rows], self.days[rows])

    def window(self, start, stop):
        """Days start..stop (1-based, inclusive) of every row, as a copy; a
        row that ends before ``stop`` keeps fewer days."""
        return Cohort(self.ids, self.y[:, start - 1:stop],
                      self.z[:, start - 1:stop],
                      np.clip(self.days - (start - 1), 0, stop - start + 1))


def _coefs(beta):
    if isinstance(beta, Beta):
        return beta.b1, beta.b2, beta.b3
    b1, b2, b3 = beta
    return b1, b2, b3


def _day(state, y, r, z_prev, b1, b2, b3):
    """The predicted increment into a day, from the previous day's ``state``
    and incidence, and the day's state: the report ``y`` where ``r`` holds,
    else the carried state.  Floats, arrays and DiffScalars alike."""
    pred = b1 + b2 * state + b3 * z_prev
    return pred, autodiff.where(r, y, state + pred)


def loss(rows, beta):
    """Masked mean squared error of predicted increments, per row.

    ``rows`` is a :class:`HospitalSeries`, or a :class:`Cohort` whose (K,)
    row losses are returned.  Leading missing days are skipped; from a row's
    first report to its last the model predicts each day's increment, scores
    the squared residual on reported days, and carries its own prediction
    forward on missing days.  Returns the summed squared error divided by the
    number of scored residuals.  ``beta`` holds the three coefficients,
    floats or (K,) columns, plain or DiffScalars.
    """
    ids = rows.ids if isinstance(rows, Cohort) else [rows.id]
    short = np.flatnonzero(np.atleast_1d(rows.n_reports) < 2)
    if short.size:
        raise InsufficientDataError(
            f"series {ids[short[0]]!r} has fewer than 2 reports")
    b1, b2, b3 = _coefs(beta)
    y, r, z = rows.y, rows.r, rows.z
    days = np.arange(y.shape[-1])
    first = r.argmax(axis=-1)[..., None]
    last = y.shape[-1] - 1 - r[..., ::-1].argmax(axis=-1)[..., None]
    # before a row's first report and after its last, nothing is scored and
    # the state rests on that report, so padded rows stay finite
    scored = r & (days > first)
    reset = r | (days < first) | (days > last)
    y = np.where(r, y, np.take_along_axis(
        y, np.where(days < first, first, last), -1))
    count = scored.sum(axis=-1)
    # day by day: the columns of a cohort, the plain numbers of one series
    y, z, reset, scored = (np.ascontiguousarray(a.T) if a.ndim > 1
                           else a.tolist() for a in (y, z, reset, scored))
    state = y[0]
    sqerror = 0.0
    for y_t, z_prev, reset_t, scored_t in zip(y[1:], z[:-1], reset[1:],
                                              scored[1:]):
        pred, carried = _day(state, y_t, reset_t, z_prev, b1, b2, b3)
        diff = pred - (y_t - state)
        sqerror = sqerror + autodiff.where(scored_t, diff * diff, 0.0)
        state = carried
    return sqerror / count


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
        for t, y_t, r_t, z_prev in zip(range(1, y.shape[1]), y.T[1:],
                                       r.T[1:], z.T):
            dy_hat[:, t], state = _day(state, y_t, r_t, z_prev, b1, b2, b3)
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
