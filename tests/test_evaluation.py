import numpy as np
import pytest

from gapfit.benchmarks import BenchmarkKind
from gapfit.datagen import MissingnessSpec, SimSpec, simulate_cohort
from gapfit.errors import UsageError
from gapfit.evaluation import (BenchmarkPredictor, CensorSpec,
                               IncrementPredictor, censor_and_recover,
                               last_point_error, sensitivity_run,
                               sliding_windows)
from gapfit.model import Beta, predict_last_increment
from gapfit.optimizer import FitConfig
from gapfit.sharing import SharingSpec

from conftest import make_series


class TruthPredictor:
    """Oracle that predicts with the generator's own coefficients."""

    tag = "truth"

    def __init__(self, betas, trajectories, scale):
        self.betas = betas
        self.trajectories = trajectories
        self.scale = scale

    def predict_cohort(self, cohort):
        from gapfit.evaluation import LastPointPrediction
        out = []
        for s, beta, traj in zip(cohort, self.betas, self.trajectories):
            scaled = s.with_scaled_z(self.scale)
            inc = predict_last_increment(scaled, beta)
            out.append(LastPointPrediction(inc, float(traj[-2])))
        return out


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
    cohort = [make_series([2, 3, 4, None], id="a"),
              make_series([2, 3, 4, 5], id="b")]
    report = last_point_error(cohort, BenchmarkPredictor(BenchmarkKind.ZERO))
    assert set(report.errors) == {"b"}


def test_all_excluded_gives_empty_flagged_report():
    cohort = [make_series([2, 3, None], id="a")]
    report = last_point_error(cohort, BenchmarkPredictor(BenchmarkKind.ZERO))
    assert report.errors == {}
    assert report.total == 0.0
    assert report.flags


def test_zero_model_error_is_squared_last_increment():
    cohort = [make_series([2, 3, 4, 7], id="a"),
              make_series([5, 5, 5, 5], id="b")]
    report = last_point_error(cohort, BenchmarkPredictor(BenchmarkKind.ZERO))
    assert report.errors["a"] == pytest.approx(9.0)
    assert report.errors["b"] == pytest.approx(0.0)
    assert report.total == pytest.approx(9.0)


def test_fallback_substitution_and_count():
    # 3 days: too short for linreg (needs 4), so every hospital falls back.
    cohort = [make_series([2, 3, 4], id="a"), make_series([3, 3, 5], id="b")]
    primary = BenchmarkPredictor(BenchmarkKind.LINREG_LOCF)
    fallback = BenchmarkPredictor(BenchmarkKind.MEAN)
    report = last_point_error(cohort, primary, fallback)
    reference = last_point_error(cohort, fallback)
    assert report.fallback_count == 2
    assert report.errors == reference.errors


def test_summary_quantiles_use_linear_interpolation():
    cohort = [make_series([2, 2, 2, 2 + d], id=f"h{d}") for d in (1, 2, 3, 4)]
    report = last_point_error(cohort, BenchmarkPredictor(BenchmarkKind.ZERO))
    values = sorted(report.errors.values())
    assert report.summary["median"] == pytest.approx(np.quantile(values, 0.5))
    assert report.summary["q1"] == pytest.approx(np.quantile(values, 0.25))
    assert report.summary["q3"] == pytest.approx(np.quantile(values, 0.75))
    assert report.summary["sum"] == pytest.approx(sum(values))


def test_empty_cohort_rejected():
    with pytest.raises(UsageError):
        last_point_error([], BenchmarkPredictor(BenchmarkKind.ZERO))


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


# -- censor and recover -----------------------------------------------------

def test_censor_spec_validation():
    with pytest.raises(UsageError):
        CensorSpec(rate=0.0)
    with pytest.raises(UsageError):
        CensorSpec(rate=1.0)
    with pytest.raises(UsageError):
        CensorSpec(rate=0.5, repetitions=0)


def test_censor_requires_complete_cohort():
    cohort = [make_series([2, None, 4, 5], id="a")]
    with pytest.raises(UsageError):
        censor_and_recover(cohort, CensorSpec(rate=0.25))


def test_censor_retention_constraint():
    cohort = [make_series([2, 3, 4], id="a")]
    with pytest.raises(UsageError):
        censor_and_recover(cohort, CensorSpec(rate=0.9))


def test_noiseless_cohort_recovered_exactly_by_increment_model():
    cohort, _ = _noiseless_cohort(seed=13, K=5)
    config = FitConfig(steps=4000, auto_eta=True, eta_safety=0.1,
                       warm_start=True)
    report = censor_and_recover(cohort, CensorSpec(rate=0.25, repetitions=2,
                                                   seed=4), config)
    assert report.summary["increment"]["median"] < 1e-6


def test_censor_reports_reproducible():
    cohort, _ = _noiseless_cohort(seed=19, K=4)
    spec = CensorSpec(rate=0.25, repetitions=2, seed=77)
    config = FitConfig(steps=200)
    a = censor_and_recover(cohort, spec, config)
    b = censor_and_recover(cohort, spec, config)
    for m in a.per_hospital:
        np.testing.assert_array_equal(a.per_hospital[m], b.per_hospital[m])


def test_increment_predictor_marks_unusable_hospitals():
    cohort = [make_series([2, None, None, 4], id="thin"),
              make_series([2, 3, 4, 5], id="ok")]
    pred = IncrementPredictor(config=FitConfig(steps=50))
    out = pred.predict_cohort(cohort)
    assert not out[0].ok  # only one report before the final day
    assert out[1].ok
