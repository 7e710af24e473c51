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
import io
import re
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from operator import itemgetter

import numpy as np

from .errors import ParseError, UsageError
from .model import Beta, Cohort

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


def _seir_deriv(s, e, i, p, n):
    """Rates of change of S, E and I (R feeds none of them)."""
    new_inf = p.transmission_rate * s * i / n
    return (-new_inf,
            new_inf - p.incubation_rate * e,
            p.incubation_rate * e - p.recovery_rate * i)


def simulate_seir(params, days, substeps=24):
    """Daily new-infection counts from a fixed-step RK4 SEIR integration.

    Returns an array of length ``days`` holding the daily flow out of the
    susceptible compartment.  The state is three Python floats, which step
    exactly as the elements of a numpy array would, at a fraction of the cost.
    """
    params.validate()
    if days < 1 or substeps < 1:
        raise UsageError("days and substeps must be >= 1")
    n = params.initial.N
    state = (params.initial.S, params.initial.E, params.initial.I)
    h = 1.0 / substeps
    half, sixth = 0.5 * h, h / 6.0
    incidence = np.empty(days)
    for d in range(days):
        s_at_day_start = state[0]
        for _ in range(substeps):
            k1 = _seir_deriv(*state, params, n)
            k2 = _seir_deriv(*(x + half * k for x, k in zip(state, k1)),
                             params, n)
            k3 = _seir_deriv(*(x + half * k for x, k in zip(state, k2)),
                             params, n)
            k4 = _seir_deriv(*(x + h * k for x, k in zip(state, k3)),
                             params, n)
            state = tuple(x + sixth * (a + 2.0 * b + 2.0 * c + g)
                          for x, a, b, c, g in zip(state, k1, k2, k3, k4))
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
    """Generate an observed :class:`~gapfit.model.Cohort` and its truth.

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
    # every hospital's trajectory at once, day by day; a zero noise term
    # changes no state, since the clamp below maps -0.0 and 0.0 alike
    with np.errstate(over="ignore", invalid="ignore"):
        z_eff = z * spec.incidence_scale
        for t in range(1, T):
            x = y[:, t - 1] + (b1 + b2 * y[:, t - 1] + b3 * z_eff[:, t - 1]
                               + noise[:, t - 1])
            # max(0.0, x): zero for -0.0 and NaN as well
            y[:, t] = np.where(x > 0.0, x, 0.0)
    width = len(str(K - 1))
    cohort = Cohort(tuple(f"h{k:0{width}d}" for k in range(K)),
                    np.where(masks, y, np.nan), z)
    bad = ~(np.isfinite(y) & np.isfinite(z_eff)).all(axis=1)
    if bad.any():  # an overflow on days the mask hides from the Cohort
        raise UsageError("simulated cases and scaled incidence must be "
                         f"finite: {cohort.ids[bad.argmax()]!r}")
    trajectories = list(y)
    return cohort, CohortTruth(betas=betas, trajectories=trajectories,
                               incidence_scale=spec.incidence_scale)


# ---------------------------------------------------------------------------
# cohort CSV I/O


def save_cohort(cohort, path, truth=None, truth_path=None):
    """Write a :class:`~gapfit.model.Cohort` in the long CSV schema;
    optionally a truth sidecar.

    Floats are serialized at full round-trip precision.  Both files are
    written in one pass, so the cells they share are formatted once.
    """
    if truth is not None and truth_path is None:
        raise UsageError("truth_path required when truth is given")
    header = ["hospital_id", "day", "cases", "incidence"]
    columns = [(cohort.y, cohort.r), cohort.z]
    if truth is not None:
        # each hospital's three coefficient cells, joined once
        coefs = np.array([(b.b1, b.b2, b.b3) for b in truth.betas], float)
        coefs = list(map(",".join, zip(*map(_cells, coefs.reshape(-1, 3).T))))
        true_cases = np.full(cohort.y.shape, np.nan)
        for k, n in enumerate(cohort.days.tolist()):
            true_cases[k, :n] = np.asarray(truth.trajectories[k], float)[:n]
        columns += [coefs, true_cases]
    with _CsvBlocks(path, header) as out, (
            _CsvBlocks(truth_path, header + ["true_b1", "true_b2", "true_b3",
                                             "true_cases"])
            if truth is not None else nullcontext()) as sidecar:
        for block in _series_blocks(cohort.ids, cohort.days, columns):
            shared = list(map(",".join, zip(*block[:4])))
            out.write([shared])
            if truth is not None:
                sidecar.write([shared, *block[4:]])


# Records per chunk of :class:`_CsvColumns`: a reader holds one chunk of cells
# as strings at a time, whatever the size of the file.  A block of the writer
# holds at most as many rows, or one hospital that has more.
_CHUNK_ROWS = 4096

# What csv's QUOTE_MINIMAL quotes a text cell for: the delimiter, the quote
# character and the line terminator's characters.
_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _text_cells(values):
    """Strings as :class:`csv.writer` writes them as cells.  One scan of the
    joined values finds whether any needs quotes; only then is each distinct
    value quoted, through csv itself."""
    values = list(values)
    if not _NEEDS_QUOTES.search("".join(values)):
        return values
    quoted = {}
    for value in dict.fromkeys(values):
        buffer = io.StringIO()
        csv.writer(buffer).writerow((value, ""))
        quoted[value] = buffer.getvalue()[:-3]  # less the row's ",\r\n"
    return list(map(quoted.__getitem__, values))


def _cells(values, shown=None):
    """The numbers of a 1-d array as cells, each as ``repr`` writes the
    Python number (``repr(float(x))`` for a float); a cell is empty where
    the mask ``shown`` is False.  One ``repr`` formats the whole array."""
    values = np.asarray(values)
    if not values.size:
        return []
    cells = repr(values.tolist())[1:-1].split(", ")
    if shown is not None:
        for i in np.flatnonzero(~np.asarray(shown, bool)).tolist():
            cells[i] = ""
    return cells


def _row_blocks(lengths):
    """Slices of consecutive series, given each one's number of rows, of at
    most ``_CHUNK_ROWS`` rows in all; a longer series is a slice of its own."""
    start = size = 0
    for k, n in enumerate(lengths):
        if size + n > _CHUNK_ROWS and k > start:
            yield slice(start, k)
            start, size = k, 0
        size += n
    if start < len(lengths):
        yield slice(start, len(lengths))


def _series_blocks(ids, lengths, columns, start=1):
    """Blocks of cells for :func:`_write_columns`: a row per day of each
    series, holding the series' id, the day (counted from ``start``) and a
    cell per column.  Series k has ``lengths[k]`` days.

    A column is a (K, T) array of numbers or of text, with each series' days
    first in its row; or a pair of such an array of numbers and a mask of
    the cells to show, the others empty; or a list of K cells, one per
    series, repeated on each of its days.  A block holds whole series of at
    most ``_CHUNK_ROWS`` rows in all (see :func:`_row_blocks`).
    """
    ids, lengths = _text_cells(ids), np.asarray(lengths, int)
    width = int(lengths.max(initial=0))
    cut = np.arange(width) < lengths[:, None]
    lengths = lengths.tolist()

    def repeated(cells, rows):
        return list(chain.from_iterable(map(repeat, cells[rows],
                                            lengths[rows])))

    for rows in _row_blocks(lengths):
        keep = cut[rows]
        block = [repeated(ids, rows), _cells(np.nonzero(keep)[1] + start)]
        for column in columns:
            if isinstance(column, list):
                block.append(repeated(column, rows))
                continue
            values, shown = (column if isinstance(column, tuple)
                             else (column, None))
            values = values[rows, :width][keep]
            if shown is not None:
                shown = shown[rows, :width][keep]
            block.append(values.tolist() if values.dtype.kind == "U"
                         else _cells(values, shown))
        yield block


class _CsvBlocks:
    """A UTF-8 CSV file written as :class:`csv.writer` writes it: the text
    cells of ``header``, then one block of rows per :meth:`write`.

    Use as a context manager.  A block is a list of equal-length columns of
    ready-made cells (see :func:`_text_cells` and :func:`_cells`); columns of
    different lengths raise ValueError.  A block is joined and written with
    one write, so only one block's cells are held at a time.
    """

    def __init__(self, path, header):
        self._fh = open(path, "w", newline="", encoding="utf-8")
        self.write([[cell] for cell in _text_cells(header)])

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()

    def write(self, columns):
        rows = list(map(",".join, zip(*columns, strict=True)))
        if rows:
            rows.append("")  # the last row's line terminator
            self._fh.write("\r\n".join(rows))


def _write_columns(path, header, blocks):
    """Write the CSV file ``path``: the ``header`` row, then each block of
    ``blocks`` (see :class:`_CsvBlocks`)."""
    with _CsvBlocks(path, header) as out:
        for columns in blocks:
            out.write(columns)


class _CsvColumns:
    """A UTF-8 CSV file read as chunks of named columns.

    Use as a context manager.  ``header`` is the file's first row (None for
    an empty file); :meth:`read` converts and checks every record after it.
    A header that lacks any of ``names`` raises :class:`ParseError` on line
    1: "missing header" if it lacks the column ``key`` (or there is none),
    else "missing columns".
    As in :class:`csv.DictReader`, a name's cells come from the last header
    column of that name, a cell past the end of a short row is None, and
    blank lines are not records.  Bytes that
    are not UTF-8 and fields over csv's size limit raise :class:`ParseError`.
    """

    def __init__(self, path, names, key=None):
        self.path = path
        self._fh = open(path, newline="", encoding="utf-8")
        self._reader = csv.reader(self._fh)
        self._error = None  # a failed read, raised once the rows before it pass
        try:
            self.header = next(self._reader, None)
        except (csv.Error, UnicodeDecodeError) as exc:
            self._fh.close()
            raise self._parse_error(exc) from None
        missing = sorted(set(names) - set(self.header or ()))
        if missing:
            self._fh.close()
            raise ParseError(f"{path}: missing header" if key in missing
                             else f"{path}: missing columns {missing}", line=1)
        where = {name: i for i, name in enumerate(self.header or ())}
        self._columns = [where[name] for name in names]

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()

    def _parse_error(self, exc):
        if isinstance(exc, UnicodeDecodeError):
            return ParseError(f"{self.path}: not UTF-8 text ({exc.reason})")
        line = self._reader.line_num
        return ParseError(f"{self.path}:{line}: {exc}", line=line)

    def read(self, convert, messages):
        """Convert and check every record; returns ``(order, keys, values)``.

        ``convert(start, columns)`` turns one chunk of columns, whose first
        record is record ``start``, into ``(keys, values, faults)``: tuples of
        arrays over its records, and a mask per rule of the records that
        break it, in order of precedence.  A record whose keys all equal an
        earlier record's breaks one more rule, the last.  The first faulty
        record in file order raises ``messages[i]`` for the first rule ``i``
        it breaks (see :meth:`_fault`).  The chunks' arrays come back
        joined, with ``order`` sorting the records stably by their keys.
        """
        chunks = [convert(start, columns) for start, columns in self._chunks()]
        keys, values, faults = ([np.concatenate(arrays) for arrays in zip(*part)]
                                for part in zip(*chunks))
        # in the stable order, a record repeats when its keys equal the
        # keys of the record before it
        order = np.lexsort(keys[::-1])
        same = np.ones(max(len(order) - 1, 0), bool)
        for key in keys:
            key = key[order]
            same &= key[1:] == key[:-1]
        repeated = np.zeros(len(order), bool)
        repeated[order[1:][same]] = True
        faults = np.array(faults + [repeated])
        if faults.any():
            record = int(np.argmax(faults.any(axis=0)))
            self._fault(record, messages[int(np.argmax(faults[:, record]))],
                        [key[record] for key in keys])
        if self._error is not None:
            raise self._error
        return order, keys, values

    def _chunks(self):
        """``(start, columns)`` per chunk of up to ``_CHUNK_ROWS`` records,
        at least one chunk, with ``columns`` one tuple of cells per name.  A
        read that fails ends the chunks and is kept in ``_error``."""
        width = max(self._columns, default=0) + 1
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
                yield start, [tuple(map(itemgetter(i), rows))
                              for i in self._columns]
                start += len(rows)

    def _fault(self, record, message, keys):
        """Raise ``message`` as the error of data record ``record``, reading
        the file again for its physical line (csv's ``line_num``) and its raw
        cells.  ``message`` is a format string over the record's raw
        ``cells``, those cells ``stripped`` (see :func:`_stripped`) and the
        record's ``keys``."""
        with open(self.path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            row = next(islice(filter(None, reader), record, None))
        cells = [row[i] if i < len(row) else None for i in self._columns]
        line = reader.line_num
        message = message.format(cells=cells, stripped=_stripped(cells),
                                 keys=keys)
        raise ParseError(f"{self.path}:{line}: {message}", line=line)


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


def load_cohort(path, incidence_column="incidence"):
    """Parse a cohort CSV; returns (:class:`~gapfit.model.Cohort`, warnings).

    Rows are in order of first appearance.  Empty ``cases`` cells mean "not
    reported".  Hospitals with fewer than 2 reports are excluded with a
    warning; malformed rows, including a missing or empty hospital_id,
    non-finite or negative counts and a repeated (hospital_id, day), raise
    :class:`ParseError` with the offending physical line number.
    """
    ids = {}  # hospital id -> index, in order of first appearance

    def convert(start, columns):
        hid, day, cases, inc = columns
        day, bad_day = _parse_cells(int, day, 0)
        cases, inc = _stripped(cases), _stripped(inc)
        reported = np.fromiter(map(bool, cases), bool, len(cases))
        y, bad_y = np.full(len(cases), np.nan), np.zeros(len(cases), bool)
        y[reported], bad_y[reported] = _parse_cells(
            float, list(filter(None, cases)), np.nan)
        z, bad_z = _parse_cells(float, inc, np.nan)
        hosp = _codes(hid, ids)
        unnamed = [code for h, code in ids.items() if not h]
        return (hosp, day), (y, z), [
            np.isin(hosp, unnamed), bad_day, day < 1,
            bad_y, reported & ~np.isfinite(y), y < 0,
            ~np.fromiter(map(bool, inc), bool, len(inc)), bad_z,
            ~np.isfinite(z), z < 0]

    messages = ["missing hospital_id", "bad day {cells[1]!r}",
                "day must be >= 1", "bad cases {stripped[2]!r}",
                "non-finite cases {stripped[2]!r}", "negative cases",
                "missing incidence (z must be complete)",
                "bad incidence {stripped[3]!r}",
                "non-finite incidence {stripped[3]!r}", "negative incidence",
                "duplicate day {keys[1]} for {cells[0]!r}"]
    required = ["hospital_id", "day", "cases", incidence_column]
    with _CsvColumns(path, required, key="hospital_id") as table:
        order, (hosp, day), (y, z) = table.read(convert, messages)
    hosp, day, y, z = hosp[order], day[order], y[order], z[order]
    counts = np.bincount(hosp, minlength=len(ids))
    # days are distinct and >= 1, so they are 1..n exactly when the last is n
    broken = np.flatnonzero(day[np.cumsum(counts) - 1] != counts)
    if broken.size:
        hid = list(ids)[broken[0]]
        raise ParseError(f"{path}: hospital {hid!r} has non-contiguous days")
    reports = np.bincount(hosp[np.isfinite(y)], minlength=len(ids))
    usable = ((counts >= 2) & (reports >= 2)).tolist()
    Y = np.full((len(ids), counts.max(initial=0)), np.nan)
    Z = np.zeros(Y.shape)
    Y[hosp, day - 1], Z[hosp, day - 1] = y, z
    cohort = Cohort([hid for hid, ok in zip(ids, usable) if ok], Y[usable],
                    Z[usable], counts[usable])
    return cohort, [f"{hid}: fewer than 2 reports, excluded"
                    for hid, ok in zip(ids, usable) if not ok]
