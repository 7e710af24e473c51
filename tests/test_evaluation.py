import numpy as np
import pytest

from gapfit.benchmarks import (BenchmarkKind, fit_linreg_locf, locf_impute,
                               predict_mean)
from gapfit.datagen import MissingnessSpec, SimSpec, simulate_cohort
from gapfit import benchmarks, evaluation, optimizer
from gapfit.errors import InsufficientDataError, UsageError
from gapfit.evaluation import (BenchmarkPredictor, CensorSpec,
                               IncrementPredictor, _rebuild_benchmarks,
                               censor_and_recover,
                               last_point_error, sensitivity_run,
                               sliding_windows)
from gapfit.model import Cohort, HospitalSeries, predict_trajectory
from gapfit.optimizer import FitConfig
from gapfit.sharing import ALL_SHARING_SPECS, SharingSpec

from conftest import make_series


class TruthPredictor:
    """Oracle that predicts with the generator's own coefficients."""

    tag = "truth"

    def __init__(self, betas, trajectories, scale):
        self.betas = betas
        self.trajectories = trajectories
        self.scale = scale

    def predict_cohort(self, cohort):
        _, dy_hat = predict_trajectory(
            cohort.y, cohort.r, cohort.z * self.scale,
            [b.as_array() for b in self.betas])
        prev = np.array([traj[-2] for traj in self.trajectories])
        return dy_hat[:, -1], prev, np.ones(len(cohort), dtype=bool)


def _noiseless_cohort(seed=5, K=8):
    spec = SimSpec(n_hospitals=K, n_days=30, noise_scale=0.0,
                   b1_range=(0.05, 0.4),
                   missingness=MissingnessSpec(mcar_rate=0.0,
                                               gap_start_prob=0.0),
                   seed=seed)
    return simulate_cohort(spec)


# -- last_point_error -------------------------------------------------------

def test_perfect_predictor_scores_zero():
    cohort, truth = _noiseless_cohort()
    pred = TruthPredictor(truth.betas, truth.trajectories,
                          truth.incidence_scale)
    report = last_point_error(cohort, pred)
    assert report.total == pytest.approx(0.0, abs=1e-16)
    assert report.fallback_count == 0


def test_hospitals_without_final_report_are_excluded():
    cohort = Cohort.from_series([make_series([2, 3, 4, None], id="a"),
                                 make_series([2, 3, 4, 5], id="b")])
    report = last_point_error(cohort, BenchmarkPredictor(BenchmarkKind.ZERO))
    assert set(report.errors) == {"b"}


def test_all_excluded_gives_empty_flagged_report():
    cohort = Cohort.from_series([make_series([2, 3, None], id="a")])
    report = last_point_error(cohort, BenchmarkPredictor(BenchmarkKind.ZERO))
    assert report.errors == {}
    assert report.total == 0.0
    assert report.flags


def test_zero_model_error_is_squared_last_increment():
    cohort = Cohort.from_series([make_series([2, 3, 4, 7], id="a"),
                                 make_series([5, 5, 5, 5], id="b")])
    report = last_point_error(cohort, BenchmarkPredictor(BenchmarkKind.ZERO))
    assert report.errors["a"] == pytest.approx(9.0)
    assert report.errors["b"] == pytest.approx(0.0)
    assert report.total == pytest.approx(9.0)


def test_fallback_substitution_and_count():
    # 3 days: too short for linreg (needs 4), so every hospital falls back.
    cohort = Cohort.from_series([make_series([2, 3, 4], id="a"),
                                 make_series([3, 3, 5], id="b")])
    primary = BenchmarkPredictor(BenchmarkKind.LINREG_LOCF)
    fallback = BenchmarkPredictor(BenchmarkKind.MEAN)
    report = last_point_error(cohort, primary, fallback)
    reference = last_point_error(cohort, fallback)
    assert report.fallback_count == 2
    assert report.errors == reference.errors


def test_summary_quantiles_use_linear_interpolation():
    cohort = Cohort.from_series([make_series([2, 2, 2, 2 + d], id=f"h{d}")
                                 for d in (1, 2, 3, 4)])
    report = last_point_error(cohort, BenchmarkPredictor(BenchmarkKind.ZERO))
    values = sorted(report.errors.values())
    assert report.summary["median"] == pytest.approx(np.quantile(values, 0.5))
    assert report.summary["q1"] == pytest.approx(np.quantile(values, 0.25))
    assert report.summary["q3"] == pytest.approx(np.quantile(values, 0.75))
    assert report.summary["sum"] == pytest.approx(sum(values))


def test_empty_cohort_rejected():
    with pytest.raises(UsageError):
        last_point_error(Cohort.from_series([]),
                         BenchmarkPredictor(BenchmarkKind.ZERO))


class StubPredictor:
    """Fixed (increment, prev_state, ok) arrays, as ``predict_cohort`` gives."""

    def __init__(self, tag, increment, prev_state, ok):
        self.tag = tag
        self.outcome = (increment, prev_state, ok)

    def predict_cohort(self, cohort):
        return self.outcome


def _reference_last_point_error(cohort, predictor, fallback_predictor=None):
    """The per-hospital loop ``last_point_error`` replaced, kept as oracle."""
    def rows(p):
        inc, prev, ok = p.predict_cohort(cohort)
        return list(zip(inc.tolist(), prev.tolist(), ok.tolist()))

    outcomes = rows(predictor)
    fallback = rows(fallback_predictor) if fallback_predictor else None
    errors, flags, fallback_count = {}, [], 0
    for k, s in enumerate(cohort):
        if not s.r[-1]:
            continue
        inc, prev, ok = outcomes[k]
        if not ok:
            if fallback is not None and fallback[k][2]:
                inc, prev, _ = fallback[k]
                fallback_count += 1
            else:
                flags.append(f"{s.id}: no usable prediction")
                continue
        realized = float(s.y[-1]) - prev
        errors[s.id] = (inc - realized) ** 2
    if not any(s.r[-1] for s in cohort):
        flags.append("no hospital reported on the final day")
    return errors, flags, fallback_count


def test_last_point_error_matches_reference_loop():
    rng = np.random.Generator(np.random.PCG64(71))
    for trial in range(60):
        K, T = int(rng.integers(1, 40)), int(rng.integers(2, 9))
        y = rng.uniform(0.0, 1e3, (K, T))
        y[rng.random((K, T)) < 0.4] = np.nan
        y[:, 0] = rng.uniform(0.0, 1e3, K)
        if trial % 10 == 0:
            y[:, -1] = np.nan  # nobody reported on the final day
        cohort = Cohort.from_series([make_series(row, id=f"h{k}")
                                     for k, row in enumerate(y)])

        def stub(tag):
            ok = rng.random(K) < rng.uniform(0.0, 1.0)
            inc = np.where(ok, rng.normal(0.0, 1e3, K), np.nan)
            prev = np.where(ok, rng.uniform(0.0, 1e3, K), np.nan)
            return StubPredictor(tag, inc, prev, ok)

        primary = stub("primary")
        for fallback in (None, stub("fallback")):
            report = last_point_error(cohort, primary, fallback)
            errors, flags, count = _reference_last_point_error(
                cohort, primary, fallback)
            assert list(report.errors) == list(errors)
            assert np.array(list(report.errors.values())).tobytes() == \
                np.array(list(errors.values())).tobytes()
            assert report.flags == flags
            assert report.fallback_count == count
    # the real predictors, on a gapped cohort with the mean as fallback
    cohort, _ = simulate_cohort(SimSpec(n_hospitals=40, n_days=12, seed=3))
    for predictor in (BenchmarkPredictor(BenchmarkKind.LINREG_LOCF),
                      IncrementPredictor(config=FitConfig(steps=30))):
        fallback = BenchmarkPredictor(BenchmarkKind.MEAN)
        report = last_point_error(cohort, predictor, fallback)
        errors, flags, count = _reference_last_point_error(
            cohort, predictor, fallback)
        assert report.errors == errors and report.flags == flags
        assert report.fallback_count == count


# -- sliding windows --------------------------------------------------------

def test_window_enumeration():
    windows = sliding_windows(70, 35)
    assert len(windows) == 36
    assert (windows[0].start, windows[0].end) == (1, 35)
    assert (windows[-1].start, windows[-1].end) == (36, 70)
    assert [w.start for w in windows] == list(range(1, 37))


def test_window_edge_cases():
    assert len(sliding_windows(35, 35)) == 1
    with pytest.raises(UsageError):
        sliding_windows(10, 35)
    with pytest.raises(UsageError):
        sliding_windows(10, 0)
    # two fitting days plus the scored day is the shortest window
    with pytest.raises(UsageError):
        sliding_windows(10, 2)
    assert len(sliding_windows(10, 3)) == 8


def test_sensitivity_report_structure():
    spec = SimSpec(n_hospitals=6, n_days=16, noise_scale=0.3, seed=8)
    cohort, _ = simulate_cohort(spec)
    specs = [SharingSpec(), SharingSpec(frozenset({1}))]
    report = sensitivity_run(cohort, specs, FitConfig(steps=100),
                             window_length=12)
    assert len(report.windows) == 16 - 12 + 1
    assert [r.label for r in report.rows] == ["individual", "shared:b1"]
    for row in report.rows:
        assert len(row.diffs) == len(report.windows)
        assert row.q1 <= row.median <= row.q3


def test_window_that_scored_nobody_is_nan_and_flagged():
    # day 6 is unreported by both hospitals, so window 1 (days 1-6) scores
    # nobody; it used to count as an improvement of exactly 0.0
    cohort = Cohort.from_series([
        make_series([2, 3, 5, 6, 8, None, 9, 11], id="a"),
        make_series([4, 4, 5, 7, 7, None, 8, 9], id="b")])
    specs = [SharingSpec()]
    report = sensitivity_run(cohort, specs, FitConfig(steps=20),
                             window_length=6)
    diffs = report.rows[0].diffs
    assert np.isnan(diffs[0]) and np.isfinite(diffs[1:]).all()
    assert report.flags == ["window 1: mean scored no hospital, skipped"]
    # LOCF regression fits the 3 days before the scored one: too few
    report = sensitivity_run(cohort, specs, FitConfig(steps=20),
                             baseline=BenchmarkKind.LINREG_LOCF,
                             window_length=4)
    assert np.isnan(report.rows[0].diffs).all()
    assert np.isnan(report.rows[0].median)
    assert len(report.flags) == len(report.windows)


def test_sensitivity_empty_cohort_rejected():
    with pytest.raises(UsageError, match="cohort must be nonempty"):
        sensitivity_run(Cohort.from_series([]), [SharingSpec()])


def _reference_sensitivity(cohort, sharing_specs, config,
                           baseline=BenchmarkKind.MEAN, window_length=35):
    """The per-spec loop ``sensitivity_run`` replaced, kept as oracle: every
    (window, spec) pair cuts its own window series and fits through
    ``last_point_error`` from scratch."""
    windows = sliding_windows(cohort[0].T, window_length)
    flags = []
    per_spec_diffs = {spec.label: [] for spec in sharing_specs}
    baseline_predictor = BenchmarkPredictor(baseline)
    fallback = BenchmarkPredictor(BenchmarkKind.MEAN)
    for w in windows:
        wcohort = []
        for s in cohort:
            try:
                wcohort.append(HospitalSeries(s.id, s.y[w.start - 1:w.end],
                                              s.z[w.start - 1:w.end]))
            except InsufficientDataError:
                flags.append(f"window {w.start}: {s.id} has no reports, dropped")
        skip = "empty" if not wcohort else None
        if wcohort:
            wcohort = Cohort.from_series(wcohort)
            base_report = last_point_error(wcohort, baseline_predictor)
            if not base_report.errors:
                skip = f"{base_report.model} scored no hospital"
        if skip:
            flags.append(f"window {w.start}: {skip}, skipped")
            for spec in sharing_specs:
                per_spec_diffs[spec.label].append(float("nan"))
            continue
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
        rows.append((spec.label, diffs, float(q1), float(med), float(q3)))
    return windows, rows, flags


def _gapped_cohort(rng, K, T):
    """Reports missing at random and in long gaps: some hospitals have no
    report in some windows, some too few to fit, and on a few days nobody
    reports."""
    y = np.cumsum(rng.normal(0.5, 2.0, (K, T)), axis=1) + 40.0
    y[rng.random((K, T)) < rng.uniform(0.1, 0.5)] = np.nan
    for k in rng.choice(K, size=K // 3, replace=False):
        start = int(rng.integers(0, T - 2))
        y[k, start:start + int(rng.integers(3, T))] = np.nan
    y[:, rng.choice(T, size=int(rng.integers(0, 3)), replace=False)] = np.nan
    for k in np.flatnonzero(~np.isfinite(y).any(axis=1)):
        y[k, int(rng.integers(0, T))] = 30.0
    z = rng.uniform(20.0, 400.0, (K, T))
    return Cohort([f"h{k}" for k in range(K)], y, z)


def test_sensitivity_matches_per_spec_reference_loop():
    rng = np.random.Generator(np.random.PCG64(2024))
    cases = [(BenchmarkKind.MEAN, "gd", False, False),
             (BenchmarkKind.LINREG_LOCF, "gd", True, True),
             (BenchmarkKind.MEAN, "adam", True, False),
             (BenchmarkKind.LINREG_LOCF, "adam", False, True),
             (BenchmarkKind.MODIFIED_MEAN, "gd", True, True),
             (BenchmarkKind.ZERO, "adam", True, True)]
    for trial, (baseline, method, auto_eta, warm) in enumerate(cases * 2):
        K, T = int(rng.integers(4, 14)), int(rng.integers(8, 16))
        cohort = _gapped_cohort(rng, K, T)
        # short windows starve LOCF regression, which needs 5 days
        length = int(rng.integers(3, 6 if trial % 2 else T + 1))
        config = FitConfig(steps=int(rng.integers(1, 25)), method=method,
                           auto_eta=auto_eta, warm_start=warm,
                           eta_safety=float(rng.choice([0.05, 0.5, 4.0])),
                           eta=(1e-3, 1e-3, float(rng.choice([1e-4, 1e-1]))))
        report = sensitivity_run(cohort, ALL_SHARING_SPECS, config,
                                 baseline=baseline, window_length=length)
        windows, rows, flags = _reference_sensitivity(
            cohort, ALL_SHARING_SPECS, config, baseline, length)
        assert report.windows == windows
        assert report.flags == flags
        assert [row.label for row in report.rows] == [r[0] for r in rows]
        for row, (_, diffs, *quantiles) in zip(report.rows, rows):
            assert np.array(row.diffs).tobytes() == np.array(diffs).tobytes()
            assert np.array([row.q1, row.median, row.q3]).tobytes() == \
                np.array(quantiles).tobytes()


def test_sensitivity_fits_each_window_spec_through_fit_shared(monkeypatch):
    # the benchmark counts fits by a hook on evaluation's fit_shared: one
    # call per (window, spec) over the window's usable hospitals, and the
    # heads, step sizes, warm starts and residual layout once per window
    calls = {"fit_shared": [], "jacobi_etas": 0, "warm_start_inits": 0,
             "_heads": 0, "_Residuals": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if name == "fit_shared":
                calls[name].append((len(args[0]), out.results))
            else:
                calls[name] += 1
            return out
        return wrapper

    monkeypatch.setattr(evaluation, "fit_shared",
                        counted("fit_shared", evaluation.fit_shared))
    for name in ("jacobi_etas", "warm_start_inits", "_Residuals"):
        monkeypatch.setattr(optimizer, name,
                            counted(name, getattr(optimizer, name)))
    monkeypatch.setattr(evaluation, "_heads",
                        counted("_heads", evaluation._heads))
    cohort = _gapped_cohort(np.random.Generator(np.random.PCG64(5)), 12, 14)
    config = FitConfig(steps=5, auto_eta=True, warm_start=True)
    report = sensitivity_run(cohort, ALL_SHARING_SPECS, config,
                             window_length=9)
    usable = []
    for i, w in enumerate(report.windows):
        if np.isnan(report.rows[0].diffs[i]):
            continue
        days = cohort.r[:, w.start - 1:w.end]
        usable.append(int((days[:, :-1].sum(axis=1) >= 2).sum()))
    assert len(usable) >= 4
    assert calls["jacobi_etas"] == calls["warm_start_inits"] == len(usable)
    assert calls["_heads"] == calls["_Residuals"] == len(usable)
    expected = [n for n in usable for _ in ALL_SHARING_SPECS]
    assert [n for n, _ in calls["fit_shared"]] == expected
    for n, results in calls["fit_shared"]:
        assert len(results) == n
        assert all(res is not None for res in results)


@pytest.mark.parametrize("baseline, per_window",
                         [(BenchmarkKind.MEAN, 1), (BenchmarkKind.ZERO, 1),
                          (BenchmarkKind.MODIFIED_MEAN, 2)])
def test_sensitivity_reuses_the_mean_baseline_as_fallback(
        monkeypatch, baseline, per_window):
    # the mean baseline's predictions serve as the fallback's; any other
    # baseline leaves the fallback one mean prediction of its own, beside
    # the one inside the modified mean
    calls = []

    def counted(v):
        calls.append(v.shape)
        return predict_mean(v)

    monkeypatch.setattr(evaluation, "predict_mean", counted)
    monkeypatch.setattr(benchmarks, "predict_mean", counted)
    y = np.cumsum(np.random.Generator(np.random.PCG64(8)).uniform(
        0.0, 3.0, (6, 12)), axis=1)
    cohort = Cohort([f"h{k}" for k in range(6)], y, np.ones((6, 12)))
    report = sensitivity_run(cohort, ALL_SHARING_SPECS[:2],
                             FitConfig(steps=3), baseline=baseline,
                             window_length=8)
    assert not np.isnan(report.rows[0].diffs).any()
    assert calls == [(6, 8)] * (per_window * len(report.windows))


# -- censor and recover -----------------------------------------------------

def test_censor_spec_validation():
    with pytest.raises(UsageError):
        CensorSpec(rate=0.0)
    with pytest.raises(UsageError):
        CensorSpec(rate=1.0)
    with pytest.raises(UsageError):
        CensorSpec(rate=0.5, repetitions=0)


def test_censor_requires_complete_cohort():
    cohort = Cohort.from_series([make_series([2, None, 4, 5], id="a")])
    with pytest.raises(UsageError):
        censor_and_recover(cohort, CensorSpec(rate=0.25))


def test_censor_retention_constraint():
    cohort = Cohort.from_series([make_series([2, 3, 4], id="a")])
    with pytest.raises(UsageError):
        censor_and_recover(cohort, CensorSpec(rate=0.9))


def test_noiseless_cohort_recovered_exactly_by_increment_model():
    cohort, _ = _noiseless_cohort(seed=13, K=5)
    config = FitConfig(steps=4000, auto_eta=True, eta_safety=0.1,
                       warm_start=True)
    report = censor_and_recover(cohort, CensorSpec(rate=0.25, repetitions=2,
                                                   seed=4), config)
    assert report.summary["increment"]["median"] < 1e-6


def _reference_rebuild(kind, series):
    """An unreported day is the rebuilt day before plus the model's increment."""
    y, r, z = series.y, series.r, series.z
    v = locf_impute(y, r)
    mean = predict_mean(v)
    b1, b2, b3 = fit_linreg_locf(v[None], z[None])[0][0]
    recon = y.copy()
    for t in range(1, len(y)):
        if r[t]:
            continue
        if kind is BenchmarkKind.ZERO:
            inc = 0.0
        elif kind is BenchmarkKind.MEAN:
            inc = mean
        elif kind is BenchmarkKind.MODIFIED_MEAN:
            prev_inc = recon[t - 1] - recon[t - 2] if t >= 2 else mean
            inc = 0.0 if prev_inc == 0.0 else mean
        else:
            inc = b1 + b2 * recon[t - 1] + b3 * z[t - 1]
        recon[t] = recon[t - 1] + inc
    return recon


@pytest.mark.parametrize("kind", list(BenchmarkKind))
def test_benchmark_rebuild_matches_reference_loop(kind):
    # Day 1 is censored, days 4-5 follow a zero increment (6 -> 6), days 8-9
    # a non-zero one (9 -> 12); the second series ends in a gap.
    cohort = [
        make_series([4, None, 6, 6, None, None, 9, 12, None, None, 14, 15],
                    z=[1, 2, 0.5, 3, 1, 2, 4, 1, 0.5, 2, 3, 1]),
        make_series([3, 5, None, 8, None, None], z=[2, 1, 3, 2, 1, 4]),
    ]
    # the series differ in length, so each is rebuilt as a one-row cohort
    rebuild = [_rebuild_benchmarks(s.y[None], s.r[None], s.z[None])[kind][0]
               for s in cohort]
    for s, recon in zip(cohort, rebuild):
        np.testing.assert_array_equal(recon, _reference_rebuild(kind, s))
        assert np.array_equal(recon[s.r], s.y[s.r])
    if kind is BenchmarkKind.MODIFIED_MEAN:
        recon = rebuild[0]
        assert predict_mean(locf_impute(cohort[0].y)) == 1.0
        assert list(recon[[1, 4, 5, 8, 9]]) == [5.0, 6.0, 6.0, 13.0, 14.0]


def test_censor_reports_reproducible():
    cohort, _ = _noiseless_cohort(seed=19, K=4)
    spec = CensorSpec(rate=0.25, repetitions=2, seed=77)
    config = FitConfig(steps=200)
    a = censor_and_recover(cohort, spec, config)
    b = censor_and_recover(cohort, spec, config)
    for m in a.per_hospital:
        np.testing.assert_array_equal(a.per_hospital[m], b.per_hospital[m])


def test_increment_predictor_marks_unusable_hospitals():
    cohort = Cohort.from_series([make_series([2, None, None, 4], id="thin"),
                                 make_series([2, 3, 4, 5], id="ok")])
    pred = IncrementPredictor(config=FitConfig(steps=50))
    _, _, ok = pred.predict_cohort(cohort)
    assert not ok[0]  # only one report before the final day
    assert ok[1]
