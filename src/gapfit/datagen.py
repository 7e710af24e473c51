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
from contextlib import ExitStack
from dataclasses import dataclass, field
from itertools import islice, repeat
from operator import itemgetter

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

    Floats are serialized at full round-trip precision.  Both files are
    written in one pass, so each hospital's cells are formatted once.
    """
    if truth is not None and truth_path is None:
        raise UsageError("truth_path required when truth is given")
    with ExitStack() as files:
        writer = csv.writer(files.enter_context(
            open(path, "w", newline="", encoding="utf-8")))
        writer.writerow(["hospital_id", "day", "cases", "incidence"])
        if truth is not None:
            sidecar = csv.writer(files.enter_context(
                open(truth_path, "w", newline="", encoding="utf-8")))
            sidecar.writerow(["hospital_id", "day", "cases", "incidence",
                              "true_b1", "true_b2", "true_b3", "true_cases"])
        for k, s in enumerate(cohort):
            days = range(1, s.T + 1)
            cases = [repr(v) if rep else ""
                     for v, rep in zip(s.y.tolist(), s.r.tolist())]
            z = list(map(repr, s.z.tolist()))
            writer.writerows(zip(repeat(s.id), days, cases, z))
            if truth is not None:
                beta = truth.betas[k]
                coefs = (repr(beta.b1), repr(beta.b2), repr(beta.b3))
                sidecar.writerows(zip(
                    repeat(s.id), days, cases, z, *map(repeat, coefs),
                    map(repr, map(float, truth.trajectories[k]))))


# Records per chunk of :class:`_CsvColumns`: a reader holds one chunk of cells
# as strings at a time, whatever the size of the file.
_CHUNK_ROWS = 4096


class _CsvColumns:
    """A UTF-8 CSV file read as chunks of named columns.

    Use as a context manager.  ``header`` is the file's first row (None for
    an empty file); :meth:`read` converts and checks every record after it.
    As in :class:`csv.DictReader`, a name's cells come from the last header
    column of that name, a cell past the end of a short row, or of a name
    the header lacks, is None, and blank lines are not records.  Bytes that
    are not UTF-8 and fields over csv's size limit raise :class:`ParseError`.
    """

    def __init__(self, path, names):
        self.path = path
        self._fh = open(path, newline="", encoding="utf-8")
        self._reader = csv.reader(self._fh)
        self._error = None  # a failed read, raised once the rows before it pass
        try:
            self.header = next(self._reader, None)
        except (csv.Error, UnicodeDecodeError) as exc:
            self._fh.close()
            raise self._parse_error(exc) from None
        where = {name: i for i, name in enumerate(self.header or ())}
        self._columns = [where.get(name) for name in names]

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()

    def _parse_error(self, exc):
        if isinstance(exc, UnicodeDecodeError):
            return ParseError(f"{self.path}: not UTF-8 text ({exc.reason})")
        line = self._reader.line_num
        return ParseError(f"{self.path}:{line}: {exc}", line=line)

    def read(self, convert, check):
        """Convert and check every record; returns ``(order, keys, values)``.

        ``convert(start, columns)`` turns one chunk of columns, whose first
        record is record ``start``, into ``(keys, values, bad)``: tuples of
        arrays over its records and a mask of the records with a faulty
        cell.  A record whose keys all equal an earlier record's is faulty
        too.  The first faulty record in file order raises its error through
        ``check(line, cells, repeated)``, which runs a row-by-row reader's
        checks on that record's raw cells.  The chunks' arrays come back
        joined, with ``order`` sorting the records stably by their keys.
        """
        chunks = []
        for start, columns in self._chunks():
            keys, values, bad = convert(start, columns)
            if bad.any():
                first = int(np.argmax(bad))
                before = [k for k, _ in chunks] + [[k[:first] for k in keys]]
                repeat = _sort(*map(np.concatenate, zip(*before)))[1]
                self._fault(check, start + first if repeat is None else repeat,
                            repeat is not None)
            chunks.append((keys, values))
        keys, values = ([np.concatenate(arrays) for arrays in zip(*part)]
                        for part in zip(*chunks))
        order, repeat = _sort(*keys)
        if repeat is not None:
            self._fault(check, repeat, True)
        if self._error is not None:
            raise self._error
        return order, keys, values

    def _chunks(self):
        """``(start, columns)`` per chunk of up to ``_CHUNK_ROWS`` records,
        at least one chunk, with ``columns`` one tuple of cells per name.  A
        read that fails ends the chunks and is kept in ``_error``."""
        width = max((i + 1 for i in self._columns if i is not None), default=1)
        start = 0
        full = True
        while full and self._error is None:
            rows = []
            try:
                # extend keeps the rows read before a failing one
                rows.extend(islice(self._reader, _CHUNK_ROWS))
            except (csv.Error, UnicodeDecodeError) as exc:
                self._error = self._parse_error(exc)
            full = len(rows) == _CHUNK_ROWS
            if rows and min(map(len, rows)) < width:
                rows = [r + [None] * (width - len(r)) if len(r) < width else r
                        for r in rows if r]
            if rows or start == 0:
                yield start, [tuple(map(itemgetter(i), rows)) if i is not None
                              else (None,) * len(rows) for i in self._columns]
                start += len(rows)

    def _fault(self, check, record, repeated):
        """Raise the error of data record ``record``, reading the file again
        for its physical line (csv's ``line_num``) and its raw cells."""
        with open(self.path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            row = next(islice(filter(None, reader), record, None))
            cells = [row[i] if i is not None and i < len(row) else None
                     for i in self._columns]
            check(reader.line_num, cells, repeated)


def _codes(cells, index):
    """An integer per cell from ``index`` (value -> code), which numbers new
    values in order of first appearance."""
    for value in dict.fromkeys(cells):
        index.setdefault(value, len(index))
    return np.fromiter(map(index.__getitem__, cells), np.intp, len(cells))


def _parse_cells(kind, cells, fill):
    """``kind()`` of each cell as an array, ``fill`` where it raises, and a
    mask of those cells.  Integers beyond int64 give an object array, so
    that they still compare exactly."""
    bad = np.zeros(len(cells), bool)
    try:
        values = list(map(kind, cells))
    except (TypeError, ValueError):
        values = []
        for i, cell in enumerate(cells):
            try:
                values.append(kind(cell))
            except (TypeError, ValueError):
                values.append(fill)
                bad[i] = True
    try:
        return np.fromiter(values, type(fill), len(values)), bad
    except OverflowError:
        return np.array(values, dtype=object), bad


def _stripped(cells):
    """Cells without surrounding whitespace; a missing cell (None) is empty."""
    try:
        return list(map(str.strip, cells))
    except TypeError:
        return [(cell or "").strip() for cell in cells]


def _is_count(values):
    """Mask of the values :func:`_parse_count` accepts."""
    return np.isfinite(values) & (values >= 0)


def _sort(*keys):
    """Stable order of records by ``keys``, and the first record in file
    order whose keys all equal an earlier record's (None if none does)."""
    order = np.lexsort(keys[::-1])
    same = np.ones(max(len(order) - 1, 0), bool)
    for key in keys:
        key = key[order]
        same &= key[1:] == key[:-1]
    repeats = order[1:][same]
    return order, (int(repeats.min()) if repeats.size else None)


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
    :class:`ParseError` with the offending physical line number.
    """
    ids = {}  # hospital id -> index, in order of first appearance

    def convert(start, columns):
        hid, day, cases, inc = columns
        day, bad = _parse_cells(int, day, 0)
        cases = _stripped(cases)
        reported = np.fromiter(map(bool, cases), bool, len(cases))
        y = np.full(len(cases), np.nan)
        y[reported] = _parse_cells(float, list(filter(None, cases)), np.nan)[0]
        z = _parse_cells(float, _stripped(inc), np.nan)[0]
        bad |= (day < 1) | (reported & ~_is_count(y)) | ~_is_count(z)
        return (_codes(hid, ids), day), (y, z), bad

    def check(line, cells, repeated):
        hid, day, cases, inc = cells
        try:
            day = int(day)
        except (TypeError, ValueError):
            raise ParseError(f"{path}:{line}: bad day {day!r}",
                             line=line) from None
        if day < 1:
            raise ParseError(f"{path}:{line}: day must be >= 1", line=line)
        cases = (cases or "").strip()
        if cases:
            _parse_count(cases, "cases", path, line)
        inc = (inc or "").strip()
        if not inc:
            raise ParseError(
                f"{path}:{line}: missing incidence (z must be complete)",
                line=line)
        _parse_count(inc, "incidence", path, line)
        if repeated:
            raise ParseError(f"{path}:{line}: duplicate day {day} for {hid!r}",
                             line=line)

    required = ["hospital_id", "day", "cases", incidence_column]
    with _CsvColumns(path, required) as table:
        if table.header is None or "hospital_id" not in table.header:
            raise ParseError(f"{path}: missing header", line=1)
        missing_cols = set(required) - set(table.header)
        if missing_cols:
            raise ParseError(
                f"{path}: missing columns {sorted(missing_cols)}", line=1)
        order, (hosp, day), (y, z) = table.read(convert, check)
    hosp, day, y, z = hosp[order], day[order], y[order], z[order]
    counts = np.bincount(hosp, minlength=len(ids))
    stops = np.cumsum(counts)
    # days are distinct and >= 1, so they are 1..n exactly when the last is n
    broken = np.flatnonzero(day[stops - 1] != counts)
    if broken.size:
        hid = list(ids)[broken[0]]
        raise ParseError(f"{path}: hospital {hid!r} has non-contiguous days")
    reports = np.bincount(hosp[np.isfinite(y)], minlength=len(ids))
    cohort = []
    warnings = []
    for hid, stop, n, n_reports in zip(ids, stops.tolist(), counts.tolist(),
                                       reports.tolist()):
        if n < 2 or n_reports < 2:
            warnings.append(f"{hid}: fewer than 2 reports, excluded")
            continue
        cohort.append(HospitalSeries(hid, y[stop - n:stop], z[stop - n:stop]))
    return cohort, warnings
