"""Evaluation protocols: withheld-last-day errors across a cohort,
sliding-window sensitivity analysis, and censor-and-recover validation.

The central scoring rule sums, over hospitals that reported on the final day,
the squared difference between a model's predicted increment into day T and
the realized increment relative to the model's own state at day T-1.  Models
that fail to fit a hospital are replaced by a fallback predictor and counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .benchmarks import (BenchmarkKind, fit_linreg_locf, locf_impute,
                         predict_mean, predict_modified_mean)
from .errors import InsufficientDataError, UsageError
from .model import predict_trajectory
from .optimizer import FitConfig
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


class BenchmarkPredictor:
    """Last-point predictions from one of the closed-form benchmark models."""

    def __init__(self, kind):
        self.kind = BenchmarkKind(kind)
        self.tag = self.kind.value

    def _predict_one(self, series):
        v = locf_impute(series.y, series.r)
        prev = float(v[-2])
        if self.kind is BenchmarkKind.ZERO:
            return LastPointPrediction(0.0, prev)
        if self.kind is BenchmarkKind.MEAN:
            return LastPointPrediction(predict_mean(series), prev)
        if self.kind is BenchmarkKind.MODIFIED_MEAN:
            return LastPointPrediction(predict_modified_mean(series), prev)
        fitres = fit_linreg_locf(series.truncated(series.T - 1))
        inc = fitres.predict_increment(prev, float(series.z[series.T - 2]))
        return LastPointPrediction(inc, prev)

    def predict_cohort(self, cohort):
        out = []
        for s in cohort:
            try:
                out.append(self._predict_one(s))
            except InsufficientDataError:
                out.append(LastPointPrediction(ok=False))
        return out


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
        scale = self.config.incidence_scale
        usable = [k for k, s in enumerate(cohort) if s.r[:-1].sum() >= 2]
        heads = [cohort[k].truncated(cohort[k].T - 1) for k in usable]
        out = [LastPointPrediction(ok=False) for _ in cohort]
        if not heads:
            return out
        cohort_fit = fit_shared(heads, self.sharing, self.config)
        for i, k in enumerate(usable):
            res = cohort_fit.results[i]
            if res is None or not res.converged:
                continue
            traj = predict_trajectory(cohort[k].with_scaled_z(scale), res.beta)
            out[k] = LastPointPrediction(traj.dy_hat[-1], traj.y_tilde[-2])
        return out


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
    if not errors:
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
            except ValueError:
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


_RECOVER_MODELS = ("increment", "zero", "mean", "modified_mean", "linreg_locf")


def _reconstruct_benchmark(kind, series):
    """Trajectory reconstruction by walking the model's own increment rule."""
    y, r, z = series.y, series.r, series.z
    T = len(y)
    recon = np.empty(T)
    recon[0] = y[0]
    mean_inc = 0.0
    if kind in ("mean", "modified_mean"):
        mean_inc = predict_mean(series)
    lr = fit_linreg_locf(series) if kind == "linreg_locf" else None
    for t in range(1, T):
        if r[t]:
            recon[t] = y[t]
            continue
        if kind == "zero":
            inc = 0.0
        elif kind == "mean":
            inc = mean_inc
        elif kind == "modified_mean":
            prev_inc = recon[t - 1] - recon[t - 2] if t >= 2 else mean_inc
            inc = 0.0 if prev_inc == 0.0 else mean_inc
        else:
            inc = lr.predict_increment(recon[t - 1], z[t - 1])
        recon[t] = recon[t - 1] + inc
    return recon


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
    K = len(cohort)
    acc = {m: np.zeros(K) for m in _RECOVER_MODELS}
    flags = []
    for rep in range(spec.repetitions):
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([spec.seed, int(spec.rate * 10000), rep])))
        censored = []
        for s in cohort:
            drop = rng.choice(np.arange(1, T), size=n_censor, replace=False)
            y = s.y.copy()
            y[drop] = np.nan
            censored.append(type(s)(s.id, y, s.z))
        inc_fit = fit_shared(censored, SharingSpec(), config)
        for k, s in enumerate(cohort):
            truth = s.y
            for m in _RECOVER_MODELS:
                if m == "increment":
                    res = inc_fit.results[k]
                    if res is not None and res.converged:
                        scaled = censored[k].with_scaled_z(config.incidence_scale)
                        traj = predict_trajectory(scaled, res.beta)
                        recon = np.asarray(traj.y_tilde, dtype=float)
                    else:
                        flags.append(f"{s.id} rep {rep}: increment fit fell back")
                        recon = _reconstruct_benchmark("mean", censored[k])
                else:
                    recon = _reconstruct_benchmark(m, censored[k])
                acc[m][k] += float(np.mean((recon - truth) ** 2))
    per_hospital = {m: acc[m] / spec.repetitions for m in _RECOVER_MODELS}
    summary = {m: _summarize(per_hospital[m]) for m in _RECOVER_MODELS}
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
