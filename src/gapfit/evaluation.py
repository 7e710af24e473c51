"""Evaluation protocols: withheld-last-day errors across a cohort,
sliding-window sensitivity analysis, and censor-and-recover validation.

The central scoring rule sums, over hospitals that reported on the final day,
the squared difference between a model's predicted increment into day T and
the realized increment relative to the model's own state at day T-1.  Models
that fail to fit a hospital are replaced by a fallback predictor and counted.

Every protocol takes a :class:`gapfit.model.Cohort`, and every model works on
its (K, T) arrays, once per fit or rebuild, not once per hospital.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .benchmarks import (BenchmarkKind, fit_linreg_locf, locf_impute,
                         predict_mean, predict_modified_mean)
from .errors import UsageError
from .model import Cohort, predict_trajectory
from .optimizer import FitConfig, _setup
from .sharing import SharingSpec, fit_shared

__all__ = ["EvalReport", "WindowSpec", "CensorSpec", "BenchmarkPredictor",
           "IncrementPredictor", "last_point_error", "sliding_windows",
           "sensitivity_run", "SensitivityReport",
           "censor_and_recover", "censor_sweep", "CensorReport"]


@dataclass
class EvalReport:
    """Per-hospital squared errors (hospitals reporting on day T only)."""

    model: str
    errors: dict
    summary: dict
    fallback_count: int = 0
    flags: list = field(default_factory=list)

    @property
    def total(self):
        return self.summary["sum"]


def _summarize(values):
    if len(values) == 0:
        return {"sum": 0.0, "mean": None, "q1": None, "median": None, "q3": None}
    a = np.asarray(values, dtype=float)
    q1, med, q3 = np.quantile(a, [0.25, 0.5, 0.75])
    return {"sum": float(a.sum()), "mean": float(a.mean()),
            "q1": float(q1), "median": float(med), "q3": float(q3)}


class BenchmarkPredictor:
    """Last-point predictions from one of the closed-form benchmark models.

    ``predict_cohort`` returns (increment, prev_state, ok) as (K,) arrays:
    the predicted increment into the final day, the state on the day before
    it, and whether the model could predict the hospital at all (too few
    days, or no report before the final day for LOCF regression, cannot).
    Values in rows that are not ``ok`` are ignored.
    """

    def __init__(self, kind):
        self.kind = BenchmarkKind(kind)
        self.tag = self.kind.value

    def predict_cohort(self, cohort):
        K, T = len(cohort), cohort.T
        y, r, z = cohort.y, cohort.r, cohort.z
        v = locf_impute(y, r)
        prev = v[:, -2]
        ok = np.ones(K, dtype=bool)
        if self.kind is BenchmarkKind.ZERO:
            return np.zeros(K), prev, ok
        if T < 3:
            return np.zeros(K), prev, ~ok
        if self.kind is BenchmarkKind.MEAN:
            return predict_mean(v), prev, ok
        if self.kind is BenchmarkKind.MODIFIED_MEAN:
            return predict_modified_mean(v), prev, ok
        # fitted on days 1..T-1, which need a report of their own
        ok = r[:, :-1].any(axis=1) if T - 1 >= 4 else ~ok
        inc = np.zeros(K)
        if ok.any():
            coefs, _ = fit_linreg_locf(v[ok, :-1], z[ok, :-1])
            inc[ok] = (coefs[:, 0] + coefs[:, 1] * prev[ok]
                       + coefs[:, 2] * z[ok, -2])
        return inc, prev, ok


class IncrementPredictor:
    """Last-point predictions from the increment model, optionally with
    globally shared parameters across the cohort.

    Fitting uses only days 1..T-1; hospitals whose fit is unusable or
    diverged are marked not-ok so the evaluation can substitute a fallback.
    ``predict_cohort`` returns arrays as :class:`BenchmarkPredictor` does.
    """

    def __init__(self, sharing=None, config=None):
        self.sharing = sharing if sharing is not None else SharingSpec()
        self.config = config if config is not None else FitConfig()
        self.tag = f"increment[{self.sharing.label}]"

    def predict_cohort(self, cohort, heads=None):
        """``heads``, when given, is the cohort's :func:`_heads`, so that a
        caller predicting one cohort under several specs sets it up once."""
        usable, heads, setup = heads or _heads(cohort, self.config)
        beta = np.zeros((len(cohort), 3))
        ok = np.zeros(len(cohort), dtype=bool)
        if len(usable):
            fit = fit_shared(heads, self.sharing, self.config, setup=setup)
            ok[usable] = fit.converged
            beta[usable[fit.converged]] = fit.beta[fit.converged]
        y_tilde, dy_hat = predict_trajectory(
            cohort.y, cohort.r, cohort.z * self.config.incidence_scale, beta)
        return dy_hat[:, -1], y_tilde[:, -2], ok


def _heads(cohort, config):
    """The rows with the 2 reports before the final day that a fit needs,
    the cohort of those rows without the final day, and its fit's
    :func:`gapfit.optimizer._setup` under ``config`` (None without rows)."""
    usable = np.flatnonzero(cohort.r[:, :-1].sum(axis=1) >= 2)
    heads = cohort.take(usable).window(1, cohort.T - 1)
    return usable, heads, _setup(heads, config) if len(heads) else None


def last_point_error(cohort, predictor, fallback_predictor=None):
    """Squared last-day prediction errors across the cohort.

    Hospitals without a report on the final day are excluded entirely.  Where
    the primary predictor failed, the fallback predictor's prediction is used
    and counted; hospitals failing both are flagged and skipped.
    """
    if len(cohort) == 0:
        raise UsageError("cohort must be nonempty")
    outcome = predictor.predict_cohort(cohort)
    fallback = (None if fallback_predictor is None
                else fallback_predictor.predict_cohort(cohort))
    return _score(predictor.tag, cohort, outcome, fallback)


def _score(tag, cohort, outcome, fallback=None):
    """The report of :func:`last_point_error` from the predictors' outcomes,
    ``outcome`` and ``fallback``, on ``cohort``."""
    ids, last = cohort.ids, cohort.y[:, -1]
    inc, prev, ok = outcome
    if fallback is not None:
        f_inc, f_prev, f_ok = fallback
    else:
        f_inc, f_prev, f_ok = inc, prev, np.zeros(len(ids), dtype=bool)
    final = np.isfinite(last)
    fell_back = final & ~ok & f_ok
    scored = final & (ok | fell_back)
    inc = np.where(fell_back, f_inc, inc)[scored]
    prev = np.where(fell_back, f_prev, prev)[scored]
    # float_power calls libm's pow, as Python's ** does; the product d * d
    # (np.square) differs from it in the last bit for some d
    sq = np.float_power(inc - (last[scored] - prev), 2.0)
    errors = dict(zip([ids[k] for k in np.flatnonzero(scored)], sq.tolist()))
    flags = [f"{ids[k]}: no usable prediction"
             for k in np.flatnonzero(final & ~scored)]
    if not final.any():
        flags.append("no hospital reported on the final day")
    return EvalReport(model=tag, errors=errors,
                      summary=_summarize(list(errors.values())),
                      fallback_count=int(fell_back.sum()), flags=flags)


@dataclass(frozen=True)
class WindowSpec:
    """A contiguous day interval [start, start + length - 1], 1-based."""

    start: int
    length: int = 35

    @property
    def end(self):
        return self.start + self.length - 1


def sliding_windows(T, length):
    """All length-`length` windows of a T-day period, in order."""
    if length > T:
        raise UsageError(f"window length {length} exceeds series length {T}")
    if length < 3:
        raise UsageError("window length must be >= 3: two fitting days "
                         "and the scored day")
    return [WindowSpec(start, length) for start in range(1, T - length + 2)]


@dataclass
class SensitivityRow:
    label: str
    diffs: list
    q1: float
    median: float
    q3: float


@dataclass
class SensitivityReport:
    baseline: str
    window_length: int
    windows: list
    rows: list
    flags: list = field(default_factory=list)


def sensitivity_run(cohort, sharing_specs, config=None,
                    baseline=BenchmarkKind.MEAN, window_length=35):
    """Fit and score every model variant on every sliding window.

    For each window the models are fitted on the window minus its last day and
    scored on that last day; reported is the per-window improvement
    (baseline error - model error, larger is better) with quantiles over
    windows per sharing combination.  A window that is empty, or where the
    baseline scored no hospital, gets NaN and a flag.  Where the baseline
    scored anyone, so does the increment model: its mean-model fallback
    predicts every hospital of a window of 3 or more days.

    Only the fit, bridge and score depend on the sharing combination.  Each
    window's arrays, baseline report, fallback predictions, rows to fit and
    their setup (step sizes, starts and residual layout) serve every spec;
    under the mean baseline, its predictions are the fallback's.
    """
    if config is None:
        config = FitConfig()
    if len(cohort) == 0:
        raise UsageError("cohort must be nonempty")
    windows = sliding_windows(cohort.T, window_length)
    flags = []
    per_spec_diffs = {spec.label: [] for spec in sharing_specs}
    baseline_predictor = BenchmarkPredictor(baseline)
    fallback = BenchmarkPredictor(BenchmarkKind.MEAN)
    predictors = [IncrementPredictor(spec, config) for spec in sharing_specs]
    for w in windows:
        kept = cohort.r[:, w.start - 1:w.end].any(axis=1)
        flags += [f"window {w.start}: {cohort.ids[k]} has no reports, dropped"
                  for k in np.flatnonzero(~kept)]
        skip = "empty" if not kept.any() else None
        if not skip:
            part = cohort.take(kept).window(w.start, w.end)
            base_outcome = baseline_predictor.predict_cohort(part)
            base_report = _score(baseline_predictor.tag, part, base_outcome)
            if not base_report.errors:
                skip = f"{base_report.model} scored no hospital"
        if skip:
            flags.append(f"window {w.start}: {skip}, skipped")
            for spec in sharing_specs:
                per_spec_diffs[spec.label].append(float("nan"))
            continue
        fallback_outcome = (base_outcome
                            if baseline_predictor.kind is BenchmarkKind.MEAN
                            else fallback.predict_cohort(part))
        heads = _heads(part, config)
        for spec, predictor in zip(sharing_specs, predictors):
            model_report = _score(predictor.tag, part,
                                  predictor.predict_cohort(part, heads),
                                  fallback_outcome)
            per_spec_diffs[spec.label].append(base_report.total
                                              - model_report.total)
    rows = []
    for spec in sharing_specs:
        diffs = per_spec_diffs[spec.label]
        clean = [d for d in diffs if not np.isnan(d)]
        q1, med, q3 = (np.quantile(clean, [0.25, 0.5, 0.75])
                       if clean else (float("nan"),) * 3)
        rows.append(SensitivityRow(label=spec.label, diffs=diffs,
                                   q1=float(q1), median=float(med), q3=float(q3)))
    return SensitivityReport(baseline=BenchmarkKind(baseline).value,
                             window_length=window_length,
                             windows=windows, rows=rows, flags=flags)


# ---------------------------------------------------------------------------
# censor-and-recover validation


@dataclass(frozen=True)
class CensorSpec:
    """One censoring scenario: fraction removed, repetitions, and RNG seed."""

    rate: float
    repetitions: int = 10
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.rate < 1.0:
            raise UsageError("censor rate must lie strictly between 0 and 1")
        if self.repetitions < 1:
            raise UsageError("repetitions must be >= 1")


@dataclass
class CensorReport:
    """Recovery errors per model: per-hospital means plus cohort summaries."""

    rate: float
    repetitions: int
    seed: int
    per_hospital: dict
    summary: dict
    flags: list = field(default_factory=list)


def _rebuild_benchmarks(y, r, z):
    """Every benchmark model's rebuilt trajectories, {kind: (K, T) array}.

    ``y``, ``r`` and ``z`` are the censored cohort as (K, T) arrays.  Zero,
    mean and LOCF regression are increment models with fixed coefficients,
    so :func:`gapfit.model.predict_trajectory` carries each through the gaps.
    Modified mean predicts zero after a zero increment, which reads the
    previous rebuilt increment, so it walks its own rule day by day over
    whole rows.
    """
    v = locf_impute(y, r)
    mean = predict_mean(v)
    zero = np.zeros((len(y), 3))
    betas = {BenchmarkKind.ZERO: zero,
             BenchmarkKind.MEAN: np.column_stack([mean, zero[:, 1:]]),
             BenchmarkKind.LINREG_LOCF: fit_linreg_locf(v, z)[0]}
    rebuilt = {kind: predict_trajectory(y, r, z, beta)[0]
               for kind, beta in betas.items()}
    recon = y.copy()
    for t in range(1, y.shape[1]):
        prev_inc = recon[:, t - 1] - recon[:, t - 2] if t >= 2 else mean
        carried = recon[:, t - 1] + np.where(prev_inc == 0.0, 0.0, mean)
        recon[:, t] = np.where(r[:, t], recon[:, t], carried)
    rebuilt[BenchmarkKind.MODIFIED_MEAN] = recon
    return rebuilt


def censor_and_recover(cohort, spec, config=None):
    """Censor fully reported series at random and score trajectory recovery.

    The first day is always retained (the increment model needs an anchor) and
    at least 2 reports remain.  Per hospital and repetition each model is
    fitted on the censored series, the full trajectory is reconstructed, and
    the mean squared error against the true trajectory over the whole interval
    is recorded; errors are averaged over repetitions and then summarized
    across hospitals.
    """
    if config is None:
        config = FitConfig()
    if len(cohort) == 0:
        raise UsageError("cohort must be nonempty")
    gapped = np.flatnonzero(cohort.n_reports != cohort.days)
    if gapped.size:
        raise UsageError(
            f"series {cohort.ids[gapped[0]]!r} is not fully reported")
    T = cohort.T
    if T < 4:
        raise UsageError(f"censor-and-recover needs at least 4 days, got T={T}")
    n_censor = int(round(spec.rate * T))
    if T - n_censor < 2:
        raise UsageError(
            f"rate {spec.rate} would leave fewer than 2 reports on T={T}")
    truth, z = cohort.y, cohort.z
    K = len(cohort)
    models = ["increment"] + [kind.value for kind in BenchmarkKind]
    sq_err = np.zeros((len(models), K))
    flags = []
    for rep in range(spec.repetitions):
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([spec.seed, int(spec.rate * 10000), rep])))
        y = truth.copy()
        for k in range(K):
            y[k, rng.choice(T - 1, size=n_censor, replace=False) + 1] = np.nan
        r = np.isfinite(y)
        # every row keeps 2 reports, so every row has a fit
        fit = fit_shared(Cohort(cohort.ids, y, z), SharingSpec(), config)
        rebuilt = _rebuild_benchmarks(y, r, z)
        increment, _ = predict_trajectory(y, r, z * config.incidence_scale,
                                          fit.beta)
        # a fit that fell back is rebuilt by the mean model
        increment = np.where(fit.converged[:, None], increment,
                             rebuilt[BenchmarkKind.MEAN])
        flags += [f"{hid} rep {rep}: increment fit fell back"
                  for hid, ok in zip(cohort.ids, fit.converged) if not ok]
        recons = [increment] + [rebuilt[kind] for kind in BenchmarkKind]
        sq_err += [np.mean((recon - truth) ** 2, axis=-1) for recon in recons]
    per_hospital = dict(zip(models, sq_err / spec.repetitions))
    summary = {m: _summarize(per_hospital[m]) for m in models}
    return CensorReport(rate=spec.rate, repetitions=spec.repetitions,
                        seed=spec.seed, per_hospital=per_hospital,
                        summary=summary, flags=flags)


def censor_sweep(cohort, rates, repetitions, seed, config=None):
    """Run censor_and_recover for several rates; returns a report per rate."""
    return [censor_and_recover(cohort,
                               CensorSpec(rate=r, repetitions=repetitions,
                                          seed=seed),
                               config=config)
            for r in rates]
