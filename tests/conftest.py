import math

import numpy as np
import pytest

from gapfit import autodiff, optimizer
from gapfit.datagen import CohortTruth
from gapfit.errors import ParseError, UsageError
from gapfit.model import Beta, Cohort, HospitalSeries, loss as model_loss

# one line per acceptance criterion, echoed after the run (see
# pytest_terminal_summary below); populated by tests/test_acceptance.py
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def make_series(y, z=None, id="s"):
    """Series builder; None entries in y mean 'not reported'."""
    y = [np.nan if v is None else float(v) for v in y]
    if z is None:
        z = np.ones(len(y))
    return HospitalSeries(id, np.asarray(y, dtype=float), np.asarray(z, dtype=float))


@pytest.fixture
def anchor_series():
    # y=(2,3,3,4), z=1 everywhere, fully reported.  At beta=0 the loss is 2/3
    # with gradient (-4/3, -10/3, -4/3); used as the analytic anchor throughout.
    return make_series([2, 3, 3, 4])


def random_gapped_series(rng, T=None, id="r"):
    if T is None:
        T = int(rng.integers(6, 16))
    y = np.abs(rng.normal(8.0, 4.0, T)) + 0.5
    miss = rng.random(T) < 0.3
    miss[0] = False
    y[miss] = np.nan
    if np.isfinite(y).sum() < 2:
        y[-1] = 1.0
    z = rng.uniform(0.0, 3.0, T)
    return HospitalSeries(id, y, z)


# Hospitals whose ids csv must quote, or must not.
HOSTILE_IDS = ["a,b", 'say "hi"', "cr\rlf\n", "crlf\r\n", "nul\x00",
               " spaced ", "é", "plain"]


def hostile_cohort():
    """A ragged, gapped cohort with hostile ids, leading unreported days and
    edge-case floats (-0.0, 5e-324, 1e16), and a truth for it."""
    rng = np.random.Generator(np.random.PCG64(5))
    series, betas, trajectories = [], [], []
    for k, hid in enumerate(HOSTILE_IDS):
        T = 3 + 5 * k
        truth = rng.uniform(0.0, 50.0, T)
        truth[rng.integers(0, T, 3)] = [-0.0, 5e-324, 1e16]
        y = truth.copy()
        y[rng.random(T) < 0.3] = np.nan
        y[:k % 3] = np.nan  # days before the first report
        y[-2:] = truth[-2:]
        z = rng.uniform(0.0, 5.0, T)
        z[rng.integers(0, T)] = -0.0
        series.append(HospitalSeries(hid, y, z))
        betas.append(Beta(*rng.uniform(-0.4, 0.4, 3).tolist()))
        trajectories.append(truth)
    betas[0] = Beta(-0.0, 5e-324, 1e16)
    return (Cohort.from_series(series),
            CohortTruth(betas, trajectories, incidence_scale=0.01))


def _parse_count(cell, what, path, lineno):
    """A finite, nonnegative count from one CSV cell.

    Anything else raises :class:`ParseError` naming the file and line.
    """
    try:
        value = float(cell)
    except (TypeError, ValueError):
        raise ParseError(f"{path}:{lineno}: bad {what} {cell!r}",
                         line=lineno) from None
    if not math.isfinite(value):
        raise ParseError(f"{path}:{lineno}: non-finite {what} {cell!r}",
                         line=lineno)
    if value < 0:
        raise ParseError(f"{path}:{lineno}: negative {what}", line=lineno)
    return value


def linreg_lstsq(v, z):
    """Same contract as :func:`gapfit.benchmarks.fit_linreg_locf`, one
    ``np.linalg.lstsq`` per row: the per-row loop the stacked solve
    replaced, kept as its oracle."""
    target = np.diff(v)
    design = np.stack([np.ones_like(target), v[:, :-1], z[:, :-1]], axis=-1)
    coefs = np.empty((len(v), 3))
    deficient = np.empty(len(v), dtype=bool)
    for k, (x, dy) in enumerate(zip(design, target)):
        coefs[k], _, rank, _ = np.linalg.lstsq(x, dy, rcond=None)
        deficient[k] = rank < 3
    return coefs, deficient


def l2_penalty(beta, lam):
    """lam * (b1^2 + b2^2 + b3^2); differentiable through the tape engine.
    The kernel applies its own penalty; this one is the tape oracle's."""
    if lam < 0:
        raise UsageError("lambda must be nonnegative")
    if isinstance(beta, Beta):
        beta = (beta.b1, beta.b2, beta.b3)
    b1, b2, b3 = beta
    return lam * (autodiff.square(b1) + autodiff.square(b2) + autodiff.square(b3))


def detect_divergence(trace, beta):
    """True iff the trace or parameters are non-finite, or the loss rose
    overall: the per-row rule that ``optimizer._judge_convergence`` applies
    to every row at once, kept as its oracle."""
    if len(trace) == 0:
        raise UsageError("empty loss trace")
    arr = np.asarray(trace, dtype=float)
    b = beta.as_array() if isinstance(beta, Beta) else np.asarray(beta, dtype=float)
    if not np.all(np.isfinite(arr)) or not np.all(np.isfinite(b)):
        return True
    return bool(arr[-1] > arr[0])


def expand_gap(y_anchor, z_window, beta, gap_len):
    """Predicted increment after ``gap_len`` carried steps, in closed form.

    Explicit polynomial expansion of the carry-forward recursion: starting from
    state ``y_anchor``, after g missing days the state is

        a*(1+b2)^g + sum_j (1+b2)^(g-1-j) * (b1 + b3*z[j])

    and the returned value is the next predicted increment from that state.
    ``z_window`` must supply the gap_len+1 covariate values consumed along the
    way.  The oracle of the recursion in
    :func:`gapfit.model.predict_trajectory` (criterion 3).
    """
    if gap_len < 0:
        raise ValueError("gap_len must be >= 0")
    if len(z_window) != gap_len + 1:
        raise ValueError("z_window must have gap_len + 1 entries")
    b1, b2, b3 = (beta.b1, beta.b2, beta.b3) if isinstance(beta, Beta) else beta
    growth = 1.0 + b2
    state = y_anchor * growth ** gap_len
    for j in range(gap_len):
        state += growth ** (gap_len - 1 - j) * (b1 + b3 * z_window[j])
    return b1 + b2 * state + b3 * z_window[gap_len]


def _loss_grad_tape(rows, beta, lam):
    """Same contract as :func:`gapfit.optimizer._loss_grad_batch`, from the
    loss on a tape.

    Takes the fit's rows as a :class:`~gapfit.model.Cohort` in place of the
    layout and differentiates :func:`gapfit.model.loss` (plus the L2
    penalty) of every row in one reverse sweep over (K,) tape values; a row
    whose evaluation turns non-finite gets NaN.
    """

    def objective(b):
        val = model_loss(rows, b)
        return val + l2_penalty(b, lam) if lam > 0.0 else val

    res = autodiff.gradient(objective, beta.T)
    return res.value, np.stack(res.gradient, axis=1)


def on_tape(call, *args, **kwargs):
    """``call(*args, **kwargs)`` with the fit driver taking every loss and
    gradient from :func:`_loss_grad_tape` instead of the batch kernel: the
    driver binds the oracle to the fit's rows as a Cohort, once per fit."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "_Residuals",
                   lambda y, r, z: Cohort(range(len(y)), y, z))
        mp.setattr(optimizer, "_loss_grad_batch", _loss_grad_tape)
        return call(*args, **kwargs)


def with_steps(call, *args, **kwargs):
    """``call(*args, **kwargs)`` and the (steps, K, 3) parameters of its fit
    after every step.  The driver calls the kernel once on its start and
    then once on each step's new parameters, so every call but the first
    gives one step's parameters."""
    seen = []
    kernel = optimizer._loss_grad_batch

    def spy(res, beta, lam):
        seen.append(beta.copy())
        return kernel(res, beta, lam)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "_loss_grad_batch", spy)
        out = call(*args, **kwargs)
    return out, np.array(seen[1:])
