"""Evaluation protocols: withheld-last-day errors across a cohort,
sliding-window sensitivity analysis, and censor-and-recover validation.

The central scoring rule sums, over hospitals that reported on the final day,
the squared difference between a model's predicted increment into day T and
the realized increment relative to the model's own state at day T-1.  Models
that fail to fit a hospital are replaced by a fallback predictor and counted.

Every model works on the cohort as (K, T) arrays, once per fit or rebuild,
not once per hospital.  Censor-and-recover rebuilds every censored trajectory
with each model.  Zero, mean and LOCF regression are increment models with
fixed coefficients, so they bridge the gaps through
:func:`gapfit.model.bridge_cohort`, the increment model's own recursion; only
modified mean, whose rule reads the previous rebuilt increment, walks its own
day loop over whole rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# fit_linreg_locf, predict_mean, predict_modified_mean and predict_trajectory
# are not called here; perfbench/tracing.py wraps them under these names.
from .benchmarks import (BenchmarkKind, _linreg_rows, _mean_increments,
                         _modified_means, fit_linreg_locf, locf_impute,
                         predict_mean, predict_modified_mean)
from .errors import InsufficientDataError, UsageError
from .model import bridge_cohort, predict_trajectory
from .optimizer import FitConfig, _batch_arrays
from .sharing import SharingSpec, fit_shared

__all__ = ["EvalReport", "WindowSpec", "CensorSpec", "LastPointPrediction",
           "BenchmarkPredictor", "IncrementPredictor", "last_point_error",
           "sliding_windows", "sensitivity_run", "SensitivityReport",
           "censor_and_recover", "censor_sweep", "CensorReport"]


@dataclass
class LastPointPrediction:
    """One model's prediction for one hospital's final increment."""

    increment: float = 0.0
    prev_state: float = 0.0
    ok: bool = True


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


def _predictions(increment, prev_state, ok):
    """One LastPointPrediction per row; rows not ``ok`` carry no values."""
    return [LastPointPrediction(i, p) if good else LastPointPrediction(ok=False)
            for i, p, good in zip(increment.tolist(), prev_state.tolist(),
                                  ok.tolist())]


class BenchmarkPredictor:
    """Last-point predictions from one of the closed-form benchmark models.

    The model is computed over the whole cohort as row operations; a
    hospital the model cannot predict (too few days, or no report before the
    final day for LOCF regression) gets ``ok=False``.
    """

    def __init__(self, kind):
        self.kind = BenchmarkKind(kind)
        self.tag = self.kind.value

    def _increments(self, v, r, z):
        """(increment (K,), ok (K,)) for imputed reports ``v``."""
        K, T = v.shape
        ok = np.ones(K, dtype=bool)
        if self.kind is BenchmarkKind.ZERO:
            return np.zeros(K), ok
        if T < 3:
            return np.zeros(K), ~ok
        if self.kind is BenchmarkKind.MEAN:
            return _mean_increments(v), ok
        if self.kind is BenchmarkKind.MODIFIED_MEAN:
            return _modified_means(v), ok
        # fitted on days 1..T-1, which need a report of their own
        ok = r[:, :-1].any(axis=1) if T - 1 >= 4 else ~ok
        inc = np.zeros(K)
        if ok.any():
            coefs, _ = _linreg_rows(v[ok, :-1], z[ok, :-1])
            inc[ok] = (coefs[:, 0] + coefs[:, 1] * v[ok, -2]
                       + coefs[:, 2] * z[ok, -2])
        return inc, ok

    def predict_cohort(self, cohort):
        y, r, z = _batch_arrays(cohort)
        v = locf_impute(y, r)
        inc, ok = self._increments(v, r, z)
        return _predictions(inc, v[:, -2], ok)


class IncrementPredictor:
    """Last-point predictions from the increment model, optionally with
    globally shared parameters across the cohort.

    Fitting uses only days 1..T-1; hospitals whose fit is unusable or
    diverged are marked not-ok so the evaluation can substitute a fallback.
    """

    def __init__(self, sharing=None, config=None):
        self.sharing = sharing if sharing is not None else SharingSpec()
        self.config = config if config is not None else FitConfig()
        self.tag = f"increment[{self.sharing.label}]"

    def predict_cohort(self, cohort):
        y, r, z = _batch_arrays(cohort)
        usable = np.flatnonzero(r[:, :-1].sum(axis=1) >= 2)
        beta = np.zeros((len(cohort), 3))
        ok = np.zeros(len(cohort), dtype=bool)
        if len(usable):
            heads = [cohort[k].window(1, cohort[k].T - 1) for k in usable]
            fits = fit_shared(heads, self.sharing, self.config).results
            for k, res in zip(usable, fits):
                if res is not None and res.converged:
                    beta[k], ok[k] = res.beta.as_array(), True
        y_tilde, dy_hat = bridge_cohort(
            y, r, z * self.config.incidence_scale, beta)
        return _predictions(dy_hat[:, -1], y_tilde[:, -2], ok)


def last_point_error(cohort, predictor, fallback_predictor=None):
    """Squared last-day prediction errors across the cohort.

    Hospitals without a report on the final day are excluded entirely.  Where
    the primary predictor failed, the fallback predictor's prediction is used
    and counted; hospitals failing both are flagged and skipped.
    """
    if len(cohort) == 0:
        raise UsageError("cohort must be nonempty")
    outcomes = predictor.predict_cohort(cohort)
    fallback = (fallback_predictor.predict_cohort(cohort)
                if fallback_predictor is not None else None)
    errors = {}
    flags = []
    fallback_count = 0
    for k, s in enumerate(cohort):
        if not s.r[-1]:
            continue
        o = outcomes[k]
        if not o.ok:
            if fallback is not None and fallback[k].ok:
                o = fallback[k]
                fallback_count += 1
            else:
                flags.append(f"{s.id}: no usable prediction")
                continue
        realized = float(s.y[-1]) - o.prev_state
        errors[s.id] = (o.increment - realized) ** 2
    report = EvalReport(model=predictor.tag, errors=errors,
                        summary=_summarize(list(errors.values())),
                        fallback_count=fallback_count, flags=flags)
    if not any(s.r[-1] for s in cohort):
        report.flags.append("no hospital reported on the final day")
    return report


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
    windows per sharing combination.
    """
    if config is None:
        config = FitConfig()
    T = cohort[0].T
    windows = sliding_windows(T, window_length)
    flags = []
    per_spec_diffs = {spec.label: [] for spec in sharing_specs}
    baseline_predictor = BenchmarkPredictor(baseline)
    fallback = BenchmarkPredictor(BenchmarkKind.MEAN)
    for w in windows:
        wcohort = []
        for s in cohort:
            try:
                wcohort.append(s.window(w.start, w.end))
            except InsufficientDataError:
                flags.append(f"window {w.start}: {s.id} has no reports, dropped")
        if not wcohort:
            flags.append(f"window {w.start}: empty, skipped")
            for spec in sharing_specs:
                per_spec_diffs[spec.label].append(float("nan"))
            continue
        base_report = last_point_error(wcohort, baseline_predictor)
        for spec in sharing_specs:
            model_report = last_point_error(
                wcohort, IncrementPredictor(spec, config), fallback)
            per_spec_diffs[spec.label].append(base_report.total - model_report.total)
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
    so :func:`gapfit.model.bridge_cohort` carries each through the gaps.
    Modified mean predicts zero after a zero increment, which reads the
    previous rebuilt increment, so it walks its own rule day by day over
    whole rows.
    """
    v = locf_impute(y, r)
    mean = _mean_increments(v)
    zero = np.zeros((len(y), 3))
    betas = {BenchmarkKind.ZERO: zero,
             BenchmarkKind.MEAN: np.column_stack([mean, zero[:, 1:]]),
             BenchmarkKind.LINREG_LOCF: _linreg_rows(v, z)[0]}
    rebuilt = {kind: bridge_cohort(y, r, z, beta)[0]
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
    for s in cohort:
        if s.n_reports != s.T:
            raise UsageError(f"series {s.id!r} is not fully reported")
    T = cohort[0].T
    n_censor = int(round(spec.rate * T))
    if T - n_censor < 2:
        raise UsageError(
            f"rate {spec.rate} would leave fewer than 2 reports on T={T}")
    truth, _, z = _batch_arrays(cohort)
    K = len(cohort)
    models = ["increment"] + [kind.value for kind in BenchmarkKind]
    sq_err = np.zeros((len(models), K))
    flags = []
    for rep in range(spec.repetitions):
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([spec.seed, int(spec.rate * 10000), rep])))
        y = truth.copy()
        for k in range(K):
            y[k, rng.choice(np.arange(1, T), size=n_censor, replace=False)] = np.nan
        r = np.isfinite(y)
        censored = [type(s)(s.id, y[k], s.z) for k, s in enumerate(cohort)]
        inc_fit = fit_shared(censored, SharingSpec(), config)
        converged = np.array([res is not None and res.converged
                              for res in inc_fit.results])
        betas = np.array([res.beta.as_array() if ok else np.full(3, np.nan)
                          for res, ok in zip(inc_fit.results, converged)])
        rebuilt = _rebuild_benchmarks(y, r, z)
        increment, _ = bridge_cohort(y, r, z * config.incidence_scale, betas)
        # a fit that fell back is rebuilt by the mean model
        increment = np.where(converged[:, None], increment,
                             rebuilt[BenchmarkKind.MEAN])
        flags += [f"{s.id} rep {rep}: increment fit fell back"
                  for s, ok in zip(cohort, converged) if not ok]
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
