import csv
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from gapfit import cli, datagen
from gapfit.datagen import (MissingnessSpec, SeirParams, SeirState, SimSpec,
                            load_cohort, missingness_mask, save_cohort,
                            simulate_cohort, simulate_seir)
from gapfit.errors import ParseError, UsageError
from gapfit.model import Cohort, HospitalSeries, loss
from gapfit.optimizer import FitConfig, fit_cohort

from conftest import _parse_count, hostile_cohort


# -- SEIR -------------------------------------------------------------------

def _seir_deriv(state, p, n):
    """The SEIR rates over a 4-element state array, as simulate_seir once
    computed them."""
    s, e, i, _ = state
    new_inf = p.transmission_rate * s * i / n
    return np.array([-new_inf,
                     new_inf - p.incubation_rate * e,
                     p.incubation_rate * e - p.recovery_rate * i,
                     p.recovery_rate * i])


def _reference_seir(params, days, substeps=24):
    """simulate_seir's former RK4 loop on numpy arrays, kept as its oracle."""
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


@pytest.mark.parametrize("params", [
    SeirParams(),
    SeirParams(transmission_rate=0.9, incubation_rate=0.5,
               recovery_rate=0.05),
    SeirParams(transmission_rate=0.0),
    SeirParams(initial=SeirState(S=1e6, E=0.0, I=1.0, R=3e5)),
    SeirParams(transmission_rate=1e-3, initial=SeirState(S=7.5, E=1e-300,
                                                         I=2.0, R=0.0)),
])
@pytest.mark.parametrize("days, substeps", [(1, 1), (3, 7), (70, 24),
                                            (40, 48)])
def test_seir_on_floats_matches_array_reference(params, days, substeps):
    got = simulate_seir(params, days, substeps)
    assert got.tobytes() == _reference_seir(params, days, substeps).tobytes()


def test_seir_conservation():
    params = SeirParams()
    n = params.initial.N
    inc = simulate_seir(params, days=60)
    # cumulative incidence can never exceed the initial susceptibles
    assert inc.sum() <= params.initial.S + 1e-9
    assert np.all(inc >= 0)
    # re-run step by step and check S+E+I+R == N each day
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


# Ids that a numpy string array would merge or mangle: trailing NULs are
# dropped there, so "a" and "a\x00" would become one id.
_TRICKY_IDS = ["a", "a\x00", "a\x00\x00", "\x00", "b\U0001f600",
               "\U0001d11e", "\U0010ffff\x00"]


@st.composite
def _cohorts(draw):
    """A cohort whose hospitals cover 2-12 days each."""
    ids = draw(st.lists(st.text(st.characters(blacklist_categories=("Cs",)),
                                min_size=1, max_size=8)
                        | st.sampled_from(_TRICKY_IDS),
                        min_size=1, max_size=5, unique=True))
    cohort = []
    for hid in ids:
        T = draw(st.integers(2, 12))
        y = draw(st.lists(st.one_of(st.none(), _counts), min_size=T,
                          max_size=T).filter(
                              lambda v: sum(x is not None for x in v) >= 2))
        z = draw(st.lists(_counts, min_size=T, max_size=T))
        cohort.append(HospitalSeries(
            hid, [np.nan if v is None else v for v in y], z))
    return Cohort.from_series(cohort)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_cohorts())
@example(cohort=Cohort.from_series([
    HospitalSeries(hid, [1.0, 2.0, np.nan, 4.0][:n], [1.0, 2.0, 3.0, 4.0][:n])
    for hid, n in (("a\x00", 4), ("a", 2), ("\U0001f600", 3))]))
def test_save_load_is_identity(tmp_path, cohort):
    path = tmp_path / "cohort.csv"
    save_cohort(cohort, path)
    loaded, warnings = load_cohort(path)
    assert warnings == []
    assert loaded.ids == cohort.ids
    assert loaded.days.tolist() == cohort.days.tolist()
    # NaN positions are compared too: assert_array_equal matches NaNs
    for name in ("y", "z", "r"):
        np.testing.assert_array_equal(getattr(loaded, name),
                                      getattr(cohort, name))
    for k in range(len(cohort)):
        s, other = cohort[k], loaded[k]
        assert other.id == s.id
        np.testing.assert_array_equal(other.y, s.y)
        np.testing.assert_array_equal(other.z, s.z)
    # the CLI's order is Python's order of the ids, rows included
    ordered = cli._load({"input": str(path),
                         "incidence_column": "incidence"})
    assert list(ordered.ids) == sorted(cohort.ids)
    rows = dict(zip(cohort.ids, cohort))
    for s in ordered:
        np.testing.assert_array_equal(s.y, rows[s.id].y)
        np.testing.assert_array_equal(s.z, rows[s.id].z)


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


@pytest.mark.parametrize("text,line", [
    # the last hospital_id column counts, and the first row stops short of it
    ("hospital_id,day,cases,incidence,hospital_id\n"
     "a,1,3.0,1.0\na,2,4.0,1.0\nb,1,3.0,1.0,None\nb,2,5.0,1.0,None\n", 2),
    # an empty id before a bad day: the id check comes first
    ("hospital_id,day,cases,incidence\nh0,1,3,1.0\n,x,3,1.0\n", 3),
])
def test_load_rejects_missing_hospital_id(tmp_path, text, line):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    with pytest.raises(ParseError, match="missing hospital_id") as exc:
        load_cohort(p)
    assert exc.value.line == line


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


# -- the streamed reader against the row-by-row one -------------------------

def _reference_load(path, incidence_column="incidence"):
    """The row-by-row reader that load_cohort replaced, kept as its oracle.

    Its two changes: a line number is csv's physical line, where the old loop
    counted records and so drifted after a blank line or a quoted line break;
    and a missing or empty hospital_id is an error, where the old loop took
    a missing one for a hospital named "None" and an empty one for a name.
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
        for row in reader:
            lineno = reader.reader.line_num
            hid = row["hospital_id"]
            if not hid:
                raise ParseError(f"{path}:{lineno}: missing hospital_id",
                                 line=lineno)
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


_HEADER = "hospital_id,day,cases,incidence\n"
# Headers with reordered, extra, repeated (the last one counts) and missing
# columns.
_HEADERS = [
    ["hospital_id", "day", "cases", "incidence"],
    ["day", "incidence", "note", "hospital_id", "cases"],
    ["hospital_id", "day", "cases", "incidence", "cases"],
    ["hospital_id", "day", "day", "cases", "incidence"],
    ["day", "cases", "incidence", "hospital_id", "hospital_id"],
    ["hospital_id", "day", "cases"],
]
_GARBAGE = st.one_of(
    st.sampled_from(["", " ", "1_0", " 3 ", "nan", "-0.0", "1e400", "-1", "0",
                     "\x00", "\u0663", "+2", "\u2003", "\x1c3", "-inf",
                     "5e-324", "99999999999999999999", "-99999999999999999999",
                     "x"]),
    st.text(max_size=3))
_MUTATIONS = ["garbage"] * 4 + ["garbled", "short", "long", "blank", "repeat",
                                 "drop"]


@st.composite
def _cohort_texts(draw):
    """A cohort CSV: valid rows, then shuffled, cut short, lengthened, blank
    lines put in, rows repeated or dropped, and garbage put in any cell or
    in a whole row."""
    header = draw(st.sampled_from(_HEADERS))
    ids = draw(st.lists(st.sampled_from(["a", "b", "", " c ", "None", "a\nb",
                                         "\u00e9"]),
                        min_size=1, max_size=3, unique=True))
    n_days = draw(st.integers(1, 5))
    records = []
    for hid in ids:
        for day in range(1, n_days + 1):
            cells = {"hospital_id": hid, "day": str(day),
                     "cases": draw(st.sampled_from(["", "0", "2.5"])
                                   | _counts.map(repr)),
                     "incidence": draw(_counts.map(repr))}
            # a repeated name's earlier columns carry garbage
            records.append([cells[name] if name in cells
                            and name not in header[i + 1:]
                            else draw(_GARBAGE)
                            for i, name in enumerate(header)])
    if draw(st.booleans()):
        records = draw(st.permutations(records))
    for kind in draw(st.lists(st.sampled_from(_MUTATIONS), max_size=5)):
        if not records:
            break
        i = draw(st.integers(0, len(records) - 1))
        row = list(records[i])
        if not row and kind in ("garbage", "short"):
            continue
        if kind == "garbage":
            row[draw(st.integers(0, len(row) - 1))] = draw(_GARBAGE)
        elif kind == "garbled":  # several bad cells: the first check fires
            row = [draw(_GARBAGE) for _ in row]
        elif kind == "short":
            row = row[:draw(st.integers(0, len(row) - 1))]
        elif kind == "long":
            row.append(draw(_GARBAGE))
        elif kind == "blank":
            row = []
        elif kind == "repeat":
            records.insert(i, records[draw(st.integers(0, len(records) - 1))])
        elif kind == "drop":
            del records[i]
            continue
        records[i] = row
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\n",
                                                                  "\r\n"])))
    writer.writerow(header)
    writer.writerows(records)
    return out.getvalue()


def _outcome(load, path):
    try:
        cohort, warnings = load(path)
    except ParseError as exc:
        return str(exc), exc.line
    return [(s.id, s.y.tobytes(), s.z.tobytes()) for s in cohort], warnings


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_cohort_texts(), st.sampled_from([1, 2, 3, 7, 4096]))
# a repeated row before a bad cell, in another chunk and in the same one
@example(text=_HEADER + "a,1,1.0,1.0\na,1,2.0,1.0\na,2,x,1.0\n", chunk=2)
@example(text=_HEADER + "a,1,1.0,1.0\na,1,2.0,1.0\na,2,x,1.0\n", chunk=7)
# two bad cells in one row: the cases check comes first
@example(text=_HEADER + "a,1,-1,nan\n", chunk=7)
# a row too short to reach the last hospital_id column, and an empty id
@example(text="hospital_id,day,cases,incidence,hospital_id\n"
         "a,1,3.0,1.0\nb,1,3.0,1.0,None\n", chunk=7)
@example(text=_HEADER + "a,1,3.0,1.0\n,1,3.0,1.0\n", chunk=1)
# which fault of which record comes first: a bad cell before the repeat it
# makes, bad days whose fill values repeat, and a repeat before a bad cell
@example(text=_HEADER + "a,1,1,1\na,1,-1,1\n", chunk=7)
@example(text=_HEADER + "a,x,1,1\na,y,1,1\n", chunk=1)
@example(text=_HEADER + "a,x,1,1\nb,1,1,1\nb,1,1,1\n", chunk=1)
@example(text=_HEADER + "a,1,1,1\na,2,1,1\na,1,1,1\na,3,nan,1\n", chunk=2)
@example(text=_HEADER + "a,0,1,1\na,0,1,1\n", chunk=7)
def test_load_cohort_matches_row_by_row_reader(tmp_path, monkeypatch, text,
                                               chunk):
    # small chunks put chunk boundaries between any two records
    monkeypatch.setattr(datagen, "_CHUNK_ROWS", chunk)
    path = tmp_path / "cohort.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    assert _outcome(load_cohort, path) == _outcome(_reference_load, path)


# -- the column-wise CSV writer ---------------------------------------------

# Ids csv must quote, or must not: delimiters, quotes, line breaks, NUL,
# surrounding spaces, the empty id and non-ASCII text.
_HOSTILE_TEXT = st.one_of(
    st.sampled_from([",", '"', "\r", "\n", "\r\n", "\x00", " a ", "", "é",
                     "a,b", 'say "hi"', "shared:b1,b2"]),
    st.text(max_size=4))
_EDGE_FLOATS = st.one_of(
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0,
                     5e-324, 1e16, 1e-300, 0.1]),
    st.floats())


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_HOSTILE_TEXT, min_size=3, max_size=3),
       st.lists(st.lists(st.tuples(_HOSTILE_TEXT, _EDGE_FLOATS, st.booleans(),
                                   st.integers(-2**63, 2**63 - 1)),
                         max_size=6), max_size=4))
@example(header=["hospital_id", "shared:b1,b2", ""], blocks=[[], []])
@example(header=["", "", ""], blocks=[[("", float("nan"), False, 0)]])
def test_write_columns_writes_what_csv_writer_writes(tmp_path, header, blocks):
    want = tmp_path / "want.csv"
    with open(want, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([text, repr(x) if shown else "", n]
                         for block in blocks for text, x, shown, n in block)
    got = tmp_path / "got.csv"
    datagen._write_columns(got, header, (
        [datagen._text_cells(text for text, *_ in block),
         datagen._cells(np.array([x for _, x, _, _ in block], float),
                        [shown for *_, shown, _ in block]),
         datagen._cells(np.array([n for *_, n in block], np.int64))]
        for block in blocks))
    assert got.read_bytes() == want.read_bytes()


def test_write_columns_rejects_columns_of_different_lengths(tmp_path):
    # zip would drop the longer column's last cells without a word
    with pytest.raises(ValueError):
        datagen._write_columns(tmp_path / "t.csv", ["a", "b"],
                               [[["1", "2"], ["3"]]])


def _reference_save(cohort, path, truth=None, truth_path=None):
    """The row-by-row writer that save_cohort replaced, kept as its oracle."""
    from contextlib import ExitStack
    from itertools import repeat
    with ExitStack() as files:
        writer = csv.writer(files.enter_context(
            open(path, "w", newline="", encoding="utf-8")))
        writer.writerow(["hospital_id", "day", "cases", "incidence"])
        if truth is not None:
            sidecar = csv.writer(files.enter_context(
                open(truth_path, "w", newline="", encoding="utf-8")))
            sidecar.writerow(["hospital_id", "day", "cases", "incidence",
                              "true_b1", "true_b2", "true_b3", "true_cases"])
        for k, (hid, n) in enumerate(zip(cohort.ids, cohort.days.tolist())):
            days = range(1, n + 1)
            cases = [repr(v) if rep else "" for v, rep in
                     zip(cohort.y[k, :n].tolist(), cohort.r[k, :n].tolist())]
            z = list(map(repr, cohort.z[k, :n].tolist()))
            writer.writerows(zip(repeat(hid), days, cases, z))
            if truth is not None:
                beta = truth.betas[k]
                coefs = (repr(beta.b1), repr(beta.b2), repr(beta.b3))
                sidecar.writerows(zip(
                    repeat(hid), days, cases, z, *map(repeat, coefs),
                    map(repr, map(float, truth.trajectories[k]))))


@pytest.mark.parametrize("chunk", [1, 7, 40, 4096])
@pytest.mark.parametrize("with_truth", [False, True])
def test_save_cohort_writes_what_the_row_writer_wrote(tmp_path, monkeypatch,
                                                      chunk, with_truth):
    # small blocks split the cohort between and inside hospitals
    monkeypatch.setattr(datagen, "_CHUNK_ROWS", chunk)
    cohort, truth = hostile_cohort()
    assert len(set(cohort.days.tolist())) == len(cohort)
    truth = truth if with_truth else None
    (tmp_path / "want").mkdir()
    (tmp_path / "got").mkdir()
    _reference_save(cohort, tmp_path / "want" / "cohort.csv", truth,
                    tmp_path / "want" / "truth.csv")
    save_cohort(cohort, tmp_path / "got" / "cohort.csv", truth,
                tmp_path / "got" / "truth.csv")
    names = ["cohort.csv", "truth.csv"] if with_truth else ["cohort.csv"]
    assert sorted(p.name for p in (tmp_path / "got").iterdir()) == names
    for name in names:
        assert ((tmp_path / "got" / name).read_bytes()
                == (tmp_path / "want" / name).read_bytes())
