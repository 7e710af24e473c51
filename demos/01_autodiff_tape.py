"""Reverse-mode autodiff on a tape, checked against finite differences.

The package differentiates the masked increment loss with a small tape
engine: every arithmetic operation on a DiffScalar records its parents and
local partials, and one reverse sweep accumulates the full gradient. A
DiffScalar holds a float or a numpy array of independent rows, so the same
sweep differentiates one series or a whole cohort. This demo walks through
the moving parts on a toy function, on the real model loss, and on the row
losses of a small cohort.
"""

import numpy as np

from gapfit import autodiff, check_gradient
from gapfit.model import Cohort, HospitalSeries, loss


def rosenbrock(v):
    x, y = v
    return (1.0 - x) ** 2 + 100.0 * (y - x ** 2) ** 2


def main():
    # gradient of a classic test function at a non-stationary point
    point = [-1.2, 1.0]
    res = autodiff.gradient(rosenbrock, point)
    print("Rosenbrock at (-1.2, 1.0)")
    print(f"  value    {res.value:.6f}")
    print(f"  gradient ({res.gradient[0]:.6f}, {res.gradient[1]:.6f})")
    print(f"  analytic (-215.600000, -88.000000)")
    print()

    # the same machinery differentiates the model loss through the
    # carry-forward bridging recursion
    y = np.array([5.0, np.nan, np.nan, 7.0, 8.0, np.nan, 6.0])
    z = np.array([1.0, 1.2, 1.5, 1.4, 1.1, 0.9, 0.8])
    series = HospitalSeries("demo", y, z)
    beta = np.array([0.2, -0.1, 0.3])
    res = autodiff.gradient(lambda b: loss(series, b), beta)
    print("Increment loss on a gapped series, beta = (0.2, -0.1, 0.3)")
    print(f"  loss     {res.value:.6f}")
    print("  gradient (" + ", ".join(f"{g:.6f}" for g in res.gradient) + ")")

    # central finite differences agree to first order in h
    fd = np.empty(3)
    for j in range(3):
        hi, lo = beta.copy(), beta.copy()
        hi[j] += 1e-6
        lo[j] -= 1e-6
        fd[j] = (loss(series, hi) - loss(series, lo)) / 2e-6
    print("  finite d (" + ", ".join(f"{g:.6f}" for g in fd) + ")")
    print(f"  max abs difference {np.abs(np.asarray(res.gradient) - fd).max():.2e}")
    print()

    # check_gradient packages that comparison with relative tolerances
    worst = check_gradient(lambda b: loss(series, b), beta)
    print(f"check_gradient: max rel discrepancy {worst:.2e}")
    print()

    # with (K,) inputs the tape holds one row per hospital: one reverse
    # sweep gives each row of a cohort its own gradient
    cohort = Cohort.from_series([
        series, HospitalSeries("other", [3.0, 4.0, np.nan, 6.0],
                               [2.0, 2.0, 1.0, 1.5])])
    betas = np.array([beta, [0.5, 0.1, -0.2]])
    res = autodiff.gradient(lambda b: loss(cohort, b), betas.T)
    for k, hid in enumerate(cohort.ids):
        print(f"{hid:>6}: loss {res.value[k]:.6f}, gradient ("
              + ", ".join(f"{g[k]:.6f}" for g in res.gradient) + ")")
    worst = check_gradient(lambda b: loss(cohort, b), betas.T)
    print("check_gradient per row: "
          + ", ".join(f"{d:.2e}" for d in worst))


if __name__ == "__main__":
    main()
