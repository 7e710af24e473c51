import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gapfit.datagen import (MissingnessSpec, SeirParams, SeirState, SimSpec,
                            load_cohort, missingness_mask, save_cohort,
                            simulate_cohort, simulate_seir)
from gapfit.errors import ParseError, UsageError
from gapfit.model import HospitalSeries, loss
from gapfit.optimizer import FitConfig, fit_cohort


# -- SEIR -------------------------------------------------------------------

def test_seir_conservation():
    params = SeirParams()
    n = params.initial.N
    inc = simulate_seir(params, days=60)
    # cumulative incidence can never exceed the initial susceptibles
    assert inc.sum() <= params.initial.S + 1e-9
    assert np.all(inc >= 0)
    # re-run step by step and check S+E+I+R == N each day
    from gapfit.datagen import _seir_deriv
    state = np.array([params.initial.S, params.initial.E,
                      params.initial.I, params.initial.R])
    h = 1.0 / 24
    for _ in range(60 * 24):
        k1 = _seir_deriv(state, params, n)
        k2 = _seir_deriv(state + 0.5 * h * k1, params, n)
        k3 = _seir_deriv(state + 0.5 * h * k2, params, n)
        k4 = _seir_deriv(state + h * k3, params, n)
        state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        assert state.sum() == pytest.approx(n, abs=1e-9 * n)
        assert np.all(state >= -1e-9)


def test_seir_zero_transmission():
    params = SeirParams(transmission_rate=0.0)
    inc = simulate_seir(params, days=20)
    np.testing.assert_allclose(inc, 0.0, atol=1e-12)


def test_seir_step_halving_converges():
    params = SeirParams()
    coarse = simulate_seir(params, days=40, substeps=24)
    fine = simulate_seir(params, days=40, substeps=48)
    rel = np.abs(coarse - fine) / np.maximum(np.abs(fine), 1e-12)
    assert rel.max() < 1e-6


def test_seir_validation():
    with pytest.raises(UsageError):
        SeirParams(transmission_rate=-0.1).validate()
    with pytest.raises(UsageError):
        SeirState(S=-1, E=0, I=0, R=0).validate()
    with pytest.raises(UsageError):
        simulate_seir(SeirParams(), days=0)


# -- missingness masks ------------------------------------------------------

def test_mask_no_missingness_all_ones():
    spec = MissingnessSpec(mcar_rate=0.0, gap_start_prob=0.0)
    assert missingness_mask(30, spec, seed=1).all()


def test_mask_deterministic_per_seed():
    spec = MissingnessSpec()
    a = missingness_mask(50, spec, seed=42)
    b = missingness_mask(50, spec, seed=42)
    np.testing.assert_array_equal(a, b)
    assert a[0]  # first day forced
    assert a.sum() >= 2


def test_mask_calibrated_to_target_missing_rate():
    # defaults should land near the 6.4% overall missingness target
    spec = MissingnessSpec()
    T = 70
    total = 0
    for seed in range(1000):
        total += T - missingness_mask(T, spec, seed=seed).sum()
    frac = total / (1000 * T)
    assert abs(frac - 0.064) < 0.01


def test_mask_validation():
    with pytest.raises(UsageError):
        missingness_mask(1, MissingnessSpec(), seed=0)
    with pytest.raises(UsageError):
        MissingnessSpec(mcar_rate=1.5).validate()
    with pytest.raises(UsageError):
        MissingnessSpec(mean_gap_length=0.5).validate()


# -- cohort generation ------------------------------------------------------

def test_noiseless_cohort_has_zero_loss_at_truth():
    spec = SimSpec(n_hospitals=10, n_days=40, noise_scale=0.0,
                   b1_range=(0.05, 0.4), seed=3)
    cohort, truth = simulate_cohort(spec)
    for s, beta in zip(cohort, truth.betas):
        scaled = s.with_scaled_z(spec.incidence_scale)
        assert loss(scaled, beta) < 1e-18


def test_fit_recovers_truth_under_mcar():
    # noise 0, 25% MCAR: the fit must recover beta within 1e-3
    spec = SimSpec(n_hospitals=20, n_days=70, noise_scale=0.0,
                   b1_range=(0.05, 0.5),
                   missingness=MissingnessSpec(mcar_rate=0.25,
                                               gap_start_prob=0.0),
                   seed=10)
    cohort, truth = simulate_cohort(spec)
    config = FitConfig(steps=16000, incidence_scale=spec.incidence_scale,
                       auto_eta=True, warm_start=True)
    results = fit_cohort(cohort, config)
    for res, beta in zip(results, truth.betas):
        assert np.abs(res.beta.as_array() - beta.as_array()).max() < 1e-3


def test_cohort_deterministic_per_seed():
    spec = SimSpec(n_hospitals=5, n_days=25, noise_scale=0.5, seed=123)
    a, _ = simulate_cohort(spec)
    b, _ = simulate_cohort(spec)
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.y, sb.y)
        np.testing.assert_array_equal(sa.z, sb.z)


def test_generated_values_clamped_nonnegative():
    spec = SimSpec(n_hospitals=10, n_days=40, b1_range=(-2.0, -1.0),
                   noise_scale=1.0, seed=6)
    _, truth = simulate_cohort(spec)
    for traj in truth.trajectories:
        assert np.all(traj >= 0)


def test_sim_spec_validation():
    with pytest.raises(UsageError):
        SimSpec(n_hospitals=0).validate()
    with pytest.raises(UsageError):
        SimSpec(noise_scale=-1.0).validate()
    with pytest.raises(UsageError):
        SimSpec(incidence_scale=0.0).validate()


# -- CSV round trip ---------------------------------------------------------

_counts = st.floats(min_value=0.0, max_value=1e12, allow_nan=False,
                    allow_infinity=False)


@st.composite
def _cohorts(draw):
    T = draw(st.integers(2, 12))
    ids = draw(st.lists(st.text(st.characters(blacklist_categories=("Cs",)),
                                min_size=1, max_size=8),
                        min_size=1, max_size=5, unique=True))
    cohort = []
    for hid in ids:
        y = draw(st.lists(st.one_of(st.none(), _counts), min_size=T,
                          max_size=T).filter(
                              lambda v: sum(x is not None for x in v) >= 2))
        z = draw(st.lists(_counts, min_size=T, max_size=T))
        cohort.append(HospitalSeries(
            hid, [np.nan if v is None else v for v in y], z))
    return cohort


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_cohorts())
def test_save_load_is_identity(tmp_path, cohort):
    path = tmp_path / "cohort.csv"
    save_cohort(cohort, path)
    loaded, warnings = load_cohort(path)
    assert warnings == []
    assert [s.id for s in loaded] == [s.id for s in cohort]
    for s, other in zip(cohort, loaded):
        # NaN positions are compared too: assert_array_equal matches NaNs
        np.testing.assert_array_equal(other.y, s.y)
        np.testing.assert_array_equal(other.z, s.z)


def test_save_load_round_trip(tmp_path):
    spec = SimSpec(n_hospitals=6, n_days=30, noise_scale=0.4, seed=44)
    cohort, truth = simulate_cohort(spec)
    path = tmp_path / "cohort.csv"
    save_cohort(cohort, path, truth=truth, truth_path=tmp_path / "truth.csv")
    loaded, warnings = load_cohort(path)
    assert warnings == []
    assert len(loaded) == len(cohort)
    by_id = {s.id: s for s in loaded}
    for s in cohort:
        other = by_id[s.id]
        np.testing.assert_array_equal(s.r, other.r)
        np.testing.assert_array_equal(s.y[s.r], other.y[other.r])
        np.testing.assert_array_equal(s.z, other.z)


def test_load_rejects_negative_cases(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("hospital_id,day,cases,incidence\nh0,1,-3,1.0\nh0,2,4,1.0\n")
    with pytest.raises(ParseError) as exc:
        load_cohort(p)
    assert exc.value.line == 2


def test_load_rejects_missing_incidence(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("hospital_id,day,cases,incidence\nh0,1,3,\nh0,2,4,1.0\n")
    with pytest.raises(ParseError):
        load_cohort(p)


def test_load_excludes_underreported_hospitals(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("hospital_id,day,cases,incidence\n"
                 "h0,1,3,1.0\nh0,2,,1.0\n"
                 "h1,1,2,1.0\nh1,2,3,1.0\n")
    cohort, warnings = load_cohort(p)
    assert [s.id for s in cohort] == ["h1"]
    assert len(warnings) == 1 and "h0" in warnings[0]


def test_load_alternative_incidence_column(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("hospital_id,day,cases,incidence,incidence_low\n"
                 "h0,1,3,2.0,1.0\nh0,2,4,2.0,1.0\n")
    cohort, _ = load_cohort(p, incidence_column="incidence_low")
    assert cohort[0].z[0] == 1.0
