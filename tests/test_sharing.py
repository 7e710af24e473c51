import numpy as np
import pytest

from gapfit.errors import InsufficientDataError, UsageError
from gapfit.model import Beta, Cohort, loss
from gapfit.optimizer import (FitConfig, _loss_grad_batch, _Residuals, fit,
                              fit_cohort, jacobi_etas)
from gapfit.sharing import ALL_SHARING_SPECS, SharingSpec, fit_shared

from conftest import make_series, random_gapped_series, with_steps


def _cohort(seed, n=5, T=20):
    rng = np.random.Generator(np.random.PCG64(seed))
    return Cohort.from_series([random_gapped_series(rng, T=T, id=f"h{i}")
                               for i in range(n)])


def test_spec_validation_and_labels():
    assert SharingSpec().label == "individual"
    assert SharingSpec(frozenset({1, 3})).label == "shared:b1,b3"
    with pytest.raises(UsageError):
        SharingSpec(frozenset({4}))


def test_spec_parse():
    assert SharingSpec.parse("none") == SharingSpec()
    assert SharingSpec.parse("b1,b3") == SharingSpec(frozenset({1, 3}))
    assert SharingSpec.parse("2") == SharingSpec(frozenset({2}))
    for text in ("b5", "bb1", "b1,bb3"):
        with pytest.raises(UsageError):
            SharingSpec.parse(text)


def test_all_specs_enumerates_the_eight_subsets():
    assert len(ALL_SHARING_SPECS) == 8
    assert len({s.shared_dims for s in ALL_SHARING_SPECS}) == 8


def test_empty_sharing_bitwise_matches_independent_fits():
    cohort = _cohort(1)
    config = FitConfig(steps=150)
    joint = fit_shared(cohort, SharingSpec(), config)
    for s, res in zip(cohort, joint.results):
        single = fit(s, config)
        assert res.beta == single.beta  # exact, not approximate
        assert res.loss_trace == single.loss_trace
        assert res.converged == single.converged


def test_shared_dims_equal_after_every_step():
    cohort = _cohort(2, n=6)
    spec = SharingSpec(frozenset({1, 3}))
    joint, history = with_steps(fit_shared, cohort, spec,
                                FitConfig(steps=60))
    assert len(history) == 60
    np.testing.assert_array_equal(history[-1], joint.beta)
    for mat in history:
        for d in (1, 3):
            col = mat[np.isfinite(mat).all(axis=1), d - 1]
            assert np.ptp(col) <= 1e-15
    # the individual dimension genuinely differs across hospitals
    final = history[-1]
    assert np.ptp(final[:, 1]) > 0


def test_identical_hospitals_fully_shared_equals_single_fit():
    base = make_series([4, 5, 5, 7, 8], z=[1, 2, 1, 3, 2])
    cohort = Cohort.from_series([
        make_series([4, 5, 5, 7, 8], z=[1, 2, 1, 3, 2], id=f"t{i}")
        for i in range(4)])
    config = FitConfig(steps=120)
    joint = fit_shared(cohort, SharingSpec(frozenset({1, 2, 3})), config)
    single = fit(base, config)
    for res in joint.results:
        assert res.beta.as_array() == pytest.approx(
            single.beta.as_array(), abs=1e-14)


def test_permutation_invariance():
    cohort = _cohort(3, n=5)
    spec = SharingSpec(frozenset({2}))
    config = FitConfig(steps=80)
    forward = fit_shared(cohort, spec, config)
    backward = fit_shared(cohort.take(np.arange(len(cohort))[::-1]), spec,
                          config)
    for k, s in enumerate(cohort):
        a = forward.results[k].beta.as_array()
        b = backward.results[len(cohort) - 1 - k].beta.as_array()
        assert a == pytest.approx(b, abs=1e-12)


def test_a_row_with_one_report_raises_on_every_fit_path():
    # one rule for every fit: the first row with fewer than 2 reports raises,
    # with the message of model.loss, the kernel's oracle
    rows = list(_cohort(4, n=3))
    rows.insert(1, make_series([None] * 10 + [5] + [None] * 9, id="bad"))
    cohort = Cohort.from_series(rows)
    config = FitConfig(steps=5)
    message = "series 'bad' has fewer than 2 reports"
    calls = [lambda spec=spec: fit_shared(cohort, spec, config)
             for spec in ALL_SHARING_SPECS]
    calls += [lambda: fit_cohort(cohort, config), lambda: fit(rows[1], config),
              lambda: loss(cohort, Beta()), lambda: loss(rows[1], Beta())]
    for call in calls:
        with pytest.raises(InsufficientDataError) as info:
            call()
        assert str(info.value) == message


def test_history_records_shared_means_per_step():
    cohort = _cohort(5, n=4)
    spec = SharingSpec(frozenset({1, 2}))
    _, history = with_steps(fit_shared, cohort, spec, FitConfig(steps=30))
    assert len(history) == 30
    for d in (1, 2):
        means = [float(np.nanmean(h[:, d - 1])) for h in history]
        assert all(np.isfinite(v) for v in means)
    # the shared means move with the fit
    assert history[0][0, 0] != history[-1][0, 0]


def test_shared_convergence_judged_on_joint_loss():
    # Warm starts place every hospital at its own optimum, so under a sharing
    # constraint the per-hospital loss often rises even though the joint mean
    # loss falls.  Convergence must track the joint objective, otherwise whole
    # cohorts get flagged as diverged and pushed onto the fallback model.
    cohort = _cohort(6, n=12, T=30)
    config = FitConfig(steps=400, auto_eta=True, warm_start=True)
    for spec in ALL_SHARING_SPECS:
        joint = fit_shared(cohort, spec, config)
        assert all(r.converged for r in joint.results), spec.label


def test_shared_dimension_steps_with_the_smallest_step_size():
    # One GD step from the common start 0: the shared b2 of every hospital
    # becomes the mean of -eta_min * gradient, not of -eta_k * gradient.
    cohort = _cohort(7, n=4)
    config = FitConfig(steps=1, auto_eta=True)
    joint = fit_shared(cohort, SharingSpec(frozenset({2})), config)
    y, r, z = cohort.y, cohort.r, cohort.z * config.incidence_scale
    etas = jacobi_etas(y, r, z, config)
    assert np.ptp(etas[:, 1]) > 0
    _, grad = _loss_grad_batch(_Residuals(y, r, z), np.zeros((4, 3)), 0.0)
    expected = np.mean(-etas[:, 1].min() * grad[:, 1])
    assert joint.beta[:, 1] == pytest.approx(expected, rel=1e-12)


def test_empty_cohort_rejected():
    with pytest.raises(UsageError):
        fit_shared(Cohort.from_series([]), SharingSpec(), FitConfig())
