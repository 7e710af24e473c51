"""Fit the increment model to a single hospital with reporting gaps.

A hospital reports its prevalent case count on some days and skips others.
The model predicts tomorrow's increment from today's state and the county
incidence, and bridges unreported days by carrying its own predictions
forward. This demo simulates one hospital, fits the three coefficients, and
prints the bridged trajectory next to the sparse observations.
"""

import numpy as np

from gapfit import (FitConfig, MissingnessSpec, SimSpec, fit,
                    predict_trajectory, simulate_cohort)


def main():
    spec = SimSpec(n_hospitals=1, n_days=28, noise_scale=0.3,
                   missingness=MissingnessSpec(mcar_rate=0.15), seed=7)
    cohort, truth = simulate_cohort(spec)
    series = cohort[0]
    n_miss = int((~series.r).sum())
    print(f"hospital {series.id}: {series.T} days, {n_miss} unreported")
    print(f"true coefficients    b = {truth.betas[0]}")

    config = FitConfig(steps=4000, auto_eta=True, warm_start=True,
                       incidence_scale=spec.incidence_scale)
    result = fit(series, config)
    print(f"fitted coefficients  b = {result.beta}")
    print(f"loss {result.loss_trace[0]:.4f} -> {result.loss_trace[-1]:.4f} "
          f"over {result.steps_used} steps, converged={result.converged}")
    print()

    # predict_trajectory bridges a whole (K, T) cohort; here K = 1
    y_tilde, dy_hat = predict_trajectory(
        series.y[None], series.r[None],
        series.z[None] * config.incidence_scale, [result.beta.as_array()])
    print(f"{'day':>4} {'reported':>9} {'bridged':>9} {'pred dy':>9}")
    for t in range(series.T):
        obs = f"{series.y[t]:9.1f}" if series.r[t] else f"{'.':>9}"
        dy = f"{dy_hat[0, t]:9.3f}" if t > 0 else f"{'':>9}"
        print(f"{t:4d} {obs} {y_tilde[0, t]:9.3f} {dy}")


if __name__ == "__main__":
    main()
