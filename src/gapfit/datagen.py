"""Synthetic cohorts with known ground truth, plus cohort file I/O.

Incidence covariates come from a fixed-rate SEIR simulator at a coarse
regional level and are attached to hospitals via per-hospital scale factors.
Hospital trajectories follow the increment model's own dynamics with additive
Gaussian noise on the increments, clamped at zero.  Missingness combines
i.i.d. random deletions with geometric-length gap bursts; the defaults are
calibrated to roughly 6.4% missing reports overall.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, UsageError
from .model import Beta, HospitalSeries

__all__ = ["SeirParams", "SeirState", "simulate_seir", "MissingnessSpec",
           "missingness_mask", "SimSpec", "CohortTruth", "simulate_cohort",
           "save_cohort", "load_cohort"]


@dataclass(frozen=True)
class SeirState:
    """Compartment sizes; S + E + I + R must equal the population N."""

    S: float
    E: float
    I: float
    R: float

    @property
    def N(self):
        return self.S + self.E + self.I + self.R

    def validate(self):
        if min(self.S, self.E, self.I, self.R) < 0 or self.N <= 0:
            raise UsageError("SEIR compartments must be nonnegative, N > 0")


@dataclass(frozen=True)
class SeirParams:
    transmission_rate: float = 0.35
    incubation_rate: float = 1 / 5.2
    recovery_rate: float = 1 / 6.0
    initial: SeirState = field(
        default_factory=lambda: SeirState(S=99_800.0, E=120.0, I=70.0, R=10.0))

    def validate(self):
        if min(self.transmission_rate, self.incubation_rate,
               self.recovery_rate) < 0:
            raise UsageError("SEIR rates must be nonnegative")
        self.initial.validate()


def _seir_deriv(state, p, n):
    s, e, i, _ = state
    new_inf = p.transmission_rate * s * i / n
    return np.array([-new_inf,
                     new_inf - p.incubation_rate * e,
                     p.incubation_rate * e - p.recovery_rate * i,
                     p.recovery_rate * i])


def simulate_seir(params, days, substeps=24):
    """Daily new-infection counts from a fixed-step RK4 SEIR integration.

    Returns an array of length ``days`` holding the daily flow out of the
    susceptible compartment.
    """
    params.validate()
    if days < 1 or substeps < 1:
        raise UsageError("days and substeps must be >= 1")
    n = params.initial.N
    state = np.array([params.initial.S, params.initial.E,
                      params.initial.I, params.initial.R])
    h = 1.0 / substeps
    incidence = np.empty(days)
    for d in range(days):
        s_at_day_start = state[0]
        for _ in range(substeps):
            k1 = _seir_deriv(state, params, n)
            k2 = _seir_deriv(state + 0.5 * h * k1, params, n)
            k3 = _seir_deriv(state + 0.5 * h * k2, params, n)
            k4 = _seir_deriv(state + h * k3, params, n)
            state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        incidence[d] = s_at_day_start - state[0]
    return incidence


@dataclass(frozen=True)
class MissingnessSpec:
    """Union of i.i.d. deletions and geometric-length gap bursts."""

    mcar_rate: float = 0.04
    gap_start_prob: float = 0.004
    mean_gap_length: float = 6.0

    def validate(self):
        if not (0.0 <= self.mcar_rate <= 1.0 and 0.0 <= self.gap_start_prob <= 1.0):
            raise UsageError("missingness probabilities must lie in [0, 1]")
        if self.mean_gap_length < 1.0:
            raise UsageError("mean gap length must be >= 1")


def missingness_mask(T, spec, seed):
    """Binary report mask of length T; first day always reported, >= 2 reports.

    Draws are resampled (bounded retries) if fewer than 2 reports survive.
    """
    spec.validate()
    if T < 2:
        raise UsageError("T must be >= 2")
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(1000):
        r = rng.random(T) >= spec.mcar_rate
        starts = rng.random(T) < spec.gap_start_prob
        for t in np.nonzero(starts)[0]:
            length = rng.geometric(1.0 / spec.mean_gap_length)
            r[t:t + length] = False
        r[0] = True
        if r.sum() >= 2:
            return r
    raise UsageError("missingness spec makes 2 reports unreachable")


# Ranges of simulate_cohort's per-hospital draws besides b1.
B2_RANGE = (-0.12, -0.02)
B3_RANGE = (0.02, 0.12)
Y0_RANGE = (2.0, 40.0)
COUNTY_SCALE_RANGE = (0.5, 1.5)
# Day-to-day reporting variability of county incidence (relative, uniform).
Z_JITTER = 0.3


@dataclass(frozen=True)
class SimSpec:
    """Everything needed to generate one reproducible cohort."""

    n_hospitals: int = 100
    n_days: int = 70
    b1_range: tuple = (-0.3, 0.5)
    noise_scale: float = 0.0
    missingness: MissingnessSpec = field(default_factory=MissingnessSpec)
    incidence_scale: float = 0.01
    seed: int = 0

    def validate(self):
        if self.n_hospitals < 1 or self.n_days < 2:
            raise UsageError("need at least 1 hospital and 2 days")
        if self.noise_scale < 0:
            raise UsageError("noise scale must be nonnegative")
        if self.incidence_scale <= 0:
            raise UsageError("incidence scale must be positive")
        self.missingness.validate()


@dataclass
class CohortTruth:
    """Hidden ground truth of a simulated cohort."""

    betas: list
    trajectories: list
    incidence_scale: float


def simulate_cohort(spec):
    """Generate an observed cohort plus its hidden ground truth.

    Per hospital: coefficients are drawn from ``spec.b1_range`` and the fixed
    ranges above, the trajectory evolves by the increment dynamics applied to
    the scaled incidence (with optional Gaussian noise on the increments,
    clamped at zero), and a missingness mask hides reports.  Deterministic
    given the seed.
    """
    spec.validate()
    root = np.random.SeedSequence(spec.seed)
    incidence = simulate_seir(SeirParams(), spec.n_days)
    hospital_seeds = root.spawn(spec.n_hospitals)
    K, T = spec.n_hospitals, spec.n_days
    betas = []
    z = np.empty((K, T))
    y = np.empty((K, T))
    noise = np.zeros((K, T - 1))
    masks = []
    for k in range(K):
        child = hospital_seeds[k].spawn(2)
        rng = np.random.Generator(np.random.PCG64(child[0]))
        betas.append(Beta(b1=rng.uniform(*spec.b1_range),
                          b2=rng.uniform(*B2_RANGE),
                          b3=rng.uniform(*B3_RANGE)))
        county_scale = rng.uniform(*COUNTY_SCALE_RANGE)
        z[k] = incidence * county_scale * rng.uniform(
            1.0 - Z_JITTER, 1.0 + Z_JITTER, size=T)
        y[k, 0] = rng.uniform(*Y0_RANGE)
        if spec.noise_scale > 0:
            noise[k] = rng.normal(0.0, spec.noise_scale, size=T - 1)
        masks.append(missingness_mask(T, spec.missingness, child[1]))
    b1, b2, b3 = np.array([(b.b1, b.b2, b.b3) for b in betas]).T
    z_eff = z * spec.incidence_scale
    # every hospital's trajectory at once, day by day; a zero noise term
    # changes no state, since the clamp below maps -0.0 and 0.0 alike
    for t in range(1, T):
        inc = b1 + b2 * y[:, t - 1] + b3 * z_eff[:, t - 1] + noise[:, t - 1]
        x = y[:, t - 1] + inc
        # max(0.0, x): zero for -0.0 and NaN as well
        y[:, t] = np.where(x > 0.0, x, 0.0)
    width = len(str(K - 1))
    cohort = [HospitalSeries(f"h{k:0{width}d}", np.where(masks[k], y[k], np.nan),
                             z[k])
              for k in range(K)]
    trajectories = list(y)
    return cohort, CohortTruth(betas=betas, trajectories=trajectories,
                               incidence_scale=spec.incidence_scale)


# ---------------------------------------------------------------------------
# cohort CSV I/O


def save_cohort(cohort, path, truth=None, truth_path=None):
    """Write a cohort in the long CSV schema; optionally a truth sidecar.

    Floats are serialized at full round-trip precision.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["hospital_id", "day", "cases", "incidence"])
        for s in cohort:
            for t in range(s.T):
                cases = repr(float(s.y[t])) if s.r[t] else ""
                writer.writerow([s.id, t + 1, cases, repr(float(s.z[t]))])
    if truth is not None:
        if truth_path is None:
            raise UsageError("truth_path required when truth is given")
        with open(truth_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["hospital_id", "day", "cases", "incidence",
                             "true_b1", "true_b2", "true_b3", "true_cases"])
            for s, beta, traj in zip(cohort, truth.betas, truth.trajectories):
                for t in range(s.T):
                    cases = repr(float(s.y[t])) if s.r[t] else ""
                    writer.writerow([
                        s.id, t + 1, cases, repr(float(s.z[t])),
                        repr(beta.b1), repr(beta.b2), repr(beta.b3),
                        repr(float(traj[t])),
                    ])


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


def load_cohort(path, incidence_column="incidence"):
    """Parse a cohort CSV; returns (cohort, warnings).

    Empty ``cases`` cells mean "not reported".  Hospitals with fewer than 2
    reports are excluded with a warning; malformed rows, including non-finite
    or negative counts and a repeated (hospital_id, day), raise
    :class:`ParseError` with the offending line number.
    """
    rows = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "hospital_id" not in reader.fieldnames:
            raise ParseError(f"{path}: missing header", line=1)
        required = {"hospital_id", "day", "cases", incidence_column}
        missing_cols = required - set(reader.fieldnames)
        if missing_cols:
            raise ParseError(
                f"{path}: missing columns {sorted(missing_cols)}", line=1)
        for lineno, row in enumerate(reader, start=2):
            hid = row["hospital_id"]
            try:
                day = int(row["day"])
            except (TypeError, ValueError):
                raise ParseError(f"{path}:{lineno}: bad day {row['day']!r}",
                                 line=lineno) from None
            if day < 1:
                raise ParseError(f"{path}:{lineno}: day must be >= 1",
                                 line=lineno)
            cases_cell = (row["cases"] or "").strip()
            cases = (np.nan if cases_cell == "" else
                     _parse_count(cases_cell, "cases", path, lineno))
            inc_cell = (row[incidence_column] or "").strip()
            if inc_cell == "":
                raise ParseError(
                    f"{path}:{lineno}: missing incidence (z must be complete)",
                    line=lineno)
            inc = _parse_count(inc_cell, "incidence", path, lineno)
            days = rows.setdefault(hid, {})
            if day in days:
                raise ParseError(
                    f"{path}:{lineno}: duplicate day {day} for {hid!r}",
                    line=lineno)
            days[day] = (cases, inc)
    cohort = []
    warnings = []
    for hid in rows:
        days = sorted(rows[hid])
        if days != list(range(1, len(days) + 1)):
            raise ParseError(f"{path}: hospital {hid!r} has non-contiguous days")
        y = np.array([rows[hid][d][0] for d in days])
        z = np.array([rows[hid][d][1] for d in days])
        n_reports = int(np.isfinite(y).sum())
        if len(y) < 2 or n_reports < 2:
            warnings.append(f"{hid}: fewer than 2 reports, excluded")
            continue
        cohort.append(HospitalSeries(hid, y, z))
    return cohort, warnings
