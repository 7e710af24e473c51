import csv
import json
import os

import pytest

from gapfit import cli
from gapfit.cli import main
from gapfit.errors import (EvaluationError, GapfitError, InsufficientDataError,
                           ParseError, TapeMismatchError, UsageError)


def _run(*argv):
    return main(list(argv))


def _simulate(tmp_path, name="sim", extra=()):
    outdir = tmp_path / name
    rc = _run("simulate", "--output-dir", str(outdir), "--seed", "9",
              "--hospitals", "8", "--days", "24", "--noise", "0.4", *extra)
    assert rc == 0
    return outdir


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _write(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def test_simulate_writes_cohort_truth_manifest(tmp_path):
    outdir = _simulate(tmp_path)
    assert (outdir / "cohort.csv").exists()
    assert (outdir / "truth.csv").exists()
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 9


def test_simulate_same_seed_identical_files(tmp_path):
    a = _simulate(tmp_path, "a")
    b = _simulate(tmp_path, "b")
    assert _read(a / "cohort.csv") == _read(b / "cohort.csv")
    assert _read(a / "truth.csv") == _read(b / "truth.csv")


@pytest.mark.parametrize("args", [
    "simulate --mcar-rate 1.7",
    "simulate --incidence-scale nan",
    "simulate --noise nan",
    "fit --incidence-scale nan",
    "fit --incidence-scale inf",
    "fit --lambda nan",
    "fit --lambda inf",
    "fit --eta 1e-3,1e-3,inf",
    "fit --auto-eta --eta-safety nan",
    "censor --rates 0.25,nan",
    "predict --incidence-scale nan",
    "fit --steps 0",
], ids=lambda args: args.replace(" --", "-").replace(" ", "-"))
def test_bad_numeric_flag_exits_2(tmp_path, args):
    command, *flags = args.split()
    argv = [command, "--output-dir", str(tmp_path / "out"), *flags]
    if command != "simulate":
        sim = _simulate(tmp_path)
        argv += ["--input", str(sim / "cohort.csv")]
    if command == "predict":
        params = tmp_path / "params.csv"
        _write(params, ["hospital_id", "b1", "b2", "b3"],
               [["h0", "0.1", "0.0", "0.0"]])
        argv += ["--params", str(params)]
    assert _run(*argv) == 2
    assert not (tmp_path / "out").exists()


def test_fit_and_share_all_equalizes_parameters(tmp_path):
    outdir = _simulate(tmp_path)
    fitdir = tmp_path / "fit"
    rc = _run("fit", "--input", str(outdir / "cohort.csv"),
              "--output-dir", str(fitdir), "--steps", "80",
              "--share", "b1,b2,b3")
    assert rc == 0
    with open(fitdir / "params.csv") as fh:
        rows = [r for r in csv.DictReader(fh) if r["b1"]]
    assert len({(r["b1"], r["b2"], r["b3"]) for r in rows}) == 1


def test_diverged_fit_leaves_blank_coefficients_predict_skips(tmp_path):
    outdir = _simulate(tmp_path)
    fitdir = tmp_path / "fit"
    rc = _run("fit", "--input", str(outdir / "cohort.csv"),
              "--output-dir", str(fitdir), "--steps", "50",
              "--eta", "1e3,1e3,1e3")
    assert rc == 0
    with open(fitdir / "params.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(r["converged"] == "false" for r in rows)
    assert all(r["b1"] == r["b2"] == r["b3"] == "" for r in rows)
    rc = _run("predict", "--input", str(outdir / "cohort.csv"),
              "--output-dir", str(tmp_path / "pred"),
              "--params", str(fitdir / "params.csv"))
    assert rc == 0


def test_fit_missing_input_exits_1(tmp_path):
    rc = _run("fit", "--input", str(tmp_path / "nope.csv"),
              "--output-dir", str(tmp_path / "out"))
    assert rc == 1


def test_benchmark_lists_all_five_models(tmp_path):
    outdir = _simulate(tmp_path)
    benchdir = tmp_path / "bench"
    rc = _run("benchmark", "--input", str(outdir / "cohort.csv"),
              "--output-dir", str(benchdir), "--steps", "80")
    assert rc == 0
    with open(benchdir / "table1.csv") as fh:
        models = [r["model"] for r in csv.DictReader(fh)]
    assert models == ["zero", "mean", "modified_mean", "linreg_locf",
                      "increment[individual]"]
    report = json.loads((benchdir / "report.json").read_text())
    with open(benchdir / "table1.csv") as fh:
        for row in csv.DictReader(fh):
            assert float(row["sum"]) == report[row["model"]]["summary"]["sum"]


def test_sensitivity_window_too_long_exits_2(tmp_path):
    outdir = _simulate(tmp_path)
    rc = _run("sensitivity", "--input", str(outdir / "cohort.csv"),
              "--output-dir", str(tmp_path / "sens"), "--window-len", "99")
    assert rc == 2


def test_sensitivity_emits_all_eight_combinations(tmp_path):
    outdir = _simulate(tmp_path)
    sensdir = tmp_path / "sens"
    rc = _run("sensitivity", "--input", str(outdir / "cohort.csv"),
              "--output-dir", str(sensdir), "--window-len", "20",
              "--steps", "60")
    assert rc == 0
    with open(sensdir / "table2.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    assert rows[0]["combination"] == "individual"
    report = json.loads((sensdir / "report.json").read_text())
    assert len(report["windows"]) == 24 - 20 + 1


def test_censor_requires_complete_cohort(tmp_path):
    outdir = _simulate(tmp_path)  # has missingness by default
    rc = _run("censor", "--input", str(outdir / "cohort.csv"),
              "--output-dir", str(tmp_path / "cen"), "--reps", "2")
    assert rc == 2


def test_censor_emits_block_per_rate(tmp_path):
    outdir = _simulate(tmp_path, extra=("--complete",))
    cendir = tmp_path / "cen"
    rc = _run("censor", "--input", str(outdir / "cohort.csv"),
              "--output-dir", str(cendir), "--reps", "2",
              "--rates", "0.25,0.5", "--steps", "80")
    assert rc == 0
    with open(cendir / "recovery.csv") as fh:
        rates = {r["rate"] for r in csv.DictReader(fh)}
    assert len(rates) == 2


def test_gradcheck_runs_and_rejects_zero_trials(tmp_path):
    assert _run("gradcheck", "--trials", "25", "--seed", "3") == 0
    assert _run("gradcheck", "--trials", "0") == 2


def test_predict_bridges_and_forecasts(tmp_path):
    outdir = _simulate(tmp_path)
    fitdir = tmp_path / "fit"
    assert _run("fit", "--input", str(outdir / "cohort.csv"),
                "--output-dir", str(fitdir), "--steps", "200") == 0
    preddir = tmp_path / "pred"
    rc = _run("predict", "--input", str(outdir / "cohort.csv"),
              "--output-dir", str(preddir),
              "--params", str(fitdir / "params.csv"))
    assert rc == 0
    with open(preddir / "trajectory.csv") as fh:
        kinds = {r["kind"] for r in csv.DictReader(fh)}
    assert "observed" in kinds
    # horizon > 0 without future z must fail cleanly
    rc = _run("predict", "--input", str(outdir / "cohort.csv"),
              "--output-dir", str(tmp_path / "p2"),
              "--params", str(fitdir / "params.csv"), "--horizon", "3")
    assert rc == 2

    # forecasts carry the model forward from the last bridged state
    T, H, scale = 24, 3, 0.01
    with open(outdir / "cohort.csv") as fh:
        z = {(r["hospital_id"], int(r["day"])): float(r["incidence"])
             for r in csv.DictReader(fh)}
    future_z = {(hid, day): 7.5 * day for hid, _ in z
                for day in range(T + 1, T + H + 1)}
    z.update(future_z)
    future = tmp_path / "future.csv"
    _write(future, ["hospital_id", "day", "incidence"],
           [[hid, day, v] for (hid, day), v in sorted(future_z.items())])
    rc = _run("predict", "--input", str(outdir / "cohort.csv"),
              "--output-dir", str(tmp_path / "p3"),
              "--params", str(fitdir / "params.csv"), "--horizon", str(H),
              "--future-z", str(future))
    assert rc == 0
    with open(fitdir / "params.csv") as fh:
        betas = {r["hospital_id"]: [float(r[k]) for k in ("b1", "b2", "b3")]
                 for r in csv.DictReader(fh)}
    with open(tmp_path / "p3" / "trajectory.csv") as fh:
        rows = list(csv.DictReader(fh))
    forecasts = [r for r in rows if r["kind"] == "forecast"]
    assert len(forecasts) == H * len(betas)
    for hid, (b1, b2, b3) in betas.items():
        state = float(next(r["y_tilde"] for r in rows
                           if r["hospital_id"] == hid and int(r["day"]) == T))
        mine = [r for r in forecasts if r["hospital_id"] == hid]
        for day, row in zip(range(T + 1, T + H + 1), mine):
            inc = b1 + b2 * state + b3 * z[hid, day - 1] * scale
            state = state + inc
            assert int(row["day"]) == day and row["observed"] == ""
            assert float(row["dy_hat"]) == pytest.approx(inc, rel=1e-12)
            assert float(row["y_tilde"]) == pytest.approx(state, rel=1e-12)

    # a future day missing from the file is a usage error
    _write(future, ["hospital_id", "day", "incidence"], [["h0", T + 1, 1.0]])
    rc = _run("predict", "--input", str(outdir / "cohort.csv"),
              "--output-dir", str(tmp_path / "p4"),
              "--params", str(fitdir / "params.csv"), "--horizon", str(H),
              "--future-z", str(future))
    assert rc == 2


# Each case puts one bad cell into an otherwise valid predict run: (file,
# 0-based data row, column, cell).  Every one must exit 1 naming its line.
BAD_CELLS = [
    ("cohort", 1, "incidence", "nan"),
    ("cohort", 2, "incidence", "-inf"),
    ("cohort", 2, "cases", "inf"),
    ("cohort", 1, "cases", "nan"),
    ("cohort", 3, "day", "3"),  # duplicates the (a, 3) row above it
    ("future", 0, "incidence", "nan"),
    ("future", 1, "incidence", "-2.5"),
    ("future", 1, "incidence", "inf"),
    ("future", 2, "day", "6"),  # duplicates the (a, 6) row above it
    ("params", 0, "b1", "nan"),
    ("params", 0, "b1", "inf"),
    ("params", 1, "hospital_id", "a"),  # a second row for hospital a
]


def _predict_tables():
    """A valid cohort, future-z and params file for one ``predict`` run."""
    return {
        "cohort": [{"hospital_id": "a", "day": d, "cases": c, "incidence": 1.0}
                   for d, c in enumerate([2.0, 3.0, 3.0, 4.0], start=1)],
        "future": [{"hospital_id": "a", "day": d, "incidence": 2.0}
                   for d in (5, 6, 7)],
        "params": [{"hospital_id": h, "b1": 0.1, "b2": -0.01, "b3": 0.2}
                   for h in ("a", "b")],
    }


def _predict(tmp_path):
    return _run("predict", "--input", str(tmp_path / "cohort.csv"),
                "--output-dir", str(tmp_path / "out"),
                "--params", str(tmp_path / "params.csv"), "--horizon", "3",
                "--future-z", str(tmp_path / "future.csv"))


def _write_tables(tmp_path, tables):
    for name, rows in tables.items():
        _write(tmp_path / f"{name}.csv", list(rows[0]),
               [list(r.values()) for r in rows])


@pytest.mark.parametrize("target, index, column, cell", BAD_CELLS)
def test_bad_input_cell_exits_1_with_line(tmp_path, capsys, target, index,
                                          column, cell):
    tables = _predict_tables()
    tables[target][index][column] = cell
    _write_tables(tmp_path, tables)
    assert _predict(tmp_path) == 1
    assert f"{target}.csv:{index + 2}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# A bad cell after a blank line or a quoted field that spans two lines:
# (file, its text, the physical line of the bad cell).
SHIFTED_LINES = [
    ("cohort", "hospital_id,day,cases,incidence\na,1,3.0,1.0\n\n"
               "a,2,x,1.0\n", 4),
    ("cohort", 'hospital_id,day,cases,incidence\n"a\nb",1,3.0,1.0\n'
               "a,1,x,1.0\n", 4),
    ("params", "hospital_id,b1,b2,b3\n\na,nan,0.0,0.0\n", 3),
    ("future", "hospital_id,day,incidence\na,5,1.0\n\n\na,6,-1\n", 5),
]


@pytest.mark.parametrize("target, text, line", SHIFTED_LINES,
                         ids=["cohort-blank-line", "cohort-two-line-id",
                              "params-blank-line", "future-blank-lines"])
def test_bad_cell_reports_its_physical_line(tmp_path, capsys, target, text,
                                            line):
    _write_tables(tmp_path, _predict_tables())
    (tmp_path / f"{target}.csv").write_text(text, encoding="utf-8")
    assert _predict(tmp_path) == 1
    err = capsys.readouterr().err
    assert f"{target}.csv:{line}:" in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["not_utf8", "oversized_field"])
@pytest.mark.parametrize("target", ["cohort", "params", "future"])
def test_bad_bytes_exit_1_naming_the_file(tmp_path, capsys, target, kind):
    _write_tables(tmp_path, _predict_tables())
    path = tmp_path / f"{target}.csv"
    line = len(path.read_bytes().splitlines()) + 1
    cell = b"\xff" if kind == "not_utf8" else b"9" * 200_000
    with open(path, "ab") as fh:
        fh.write(b"a,9," + cell + b",1.0\n")
    assert _predict(tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}")
    if kind == "not_utf8":
        assert "not UTF-8" in err
    else:
        assert f"{path}:{line}: field larger than field limit" in err
    assert not (tmp_path / "out").exists()


def test_benchmark_on_two_day_series_flags_models_needing_more_days(tmp_path):
    cohort = tmp_path / "cohort.csv"
    _write(cohort, ["hospital_id", "day", "cases", "incidence"],
           [["a", 1, 2.0, 1.0], ["a", 2, 3.0, 1.5],
            ["b", 1, 5.0, 2.0], ["b", 2, 4.0, 0.5]])
    outdir = tmp_path / "bench"
    assert _run("benchmark", "--input", str(cohort),
                "--output-dir", str(outdir), "--steps", "20") == 0
    report = json.loads((outdir / "report.json").read_text())
    with open(outdir / "table1.csv") as fh:
        table = {r["model"]: r for r in csv.DictReader(fh)}
    # only the zero model predicts from a single day; the others need more
    assert set(report["zero"]["errors"]) == {"a", "b"}
    assert report["zero"]["n_scored"] == 2
    assert table["zero"]["n_scored"] == "2"
    assert float(table["zero"]["sum"]) == report["zero"]["summary"]["sum"]
    for model in ("mean", "modified_mean", "linreg_locf",
                  "increment[individual]"):
        assert report[model]["errors"] == {}
        # a model that scored nobody has no sum, rather than a perfect 0.0
        assert report[model]["n_scored"] == 0
        assert report[model]["summary"]["sum"] is None
        assert table[model]["n_scored"] == "0"
        assert table[model]["sum"] == ""
        assert report[model]["flags"] == ["a: no usable prediction",
                                          "b: no usable prediction"]


@pytest.mark.parametrize("command", ["fit", "benchmark", "sensitivity",
                                     "censor"])
def test_ragged_cohort_exits_2_naming_the_hospital(tmp_path, capsys, command):
    # hospital a covers 5 days, b and c cover 6; only predict accepts that
    cohort = tmp_path / "cohort.csv"
    _write(cohort, ["hospital_id", "day", "cases", "incidence"],
           [[h, d, 2.0 + d, 1.0] for h, n in (("a", 5), ("b", 6), ("c", 6))
            for d in range(1, n + 1)])
    outdir = tmp_path / "out"
    rc = _run(command, "--input", str(cohort), "--output-dir", str(outdir),
              "--steps", "5",
              *(["--window-len", "3"] if command == "sensitivity" else []))
    assert rc == 2
    assert "'b' has 6 days, 'a' has 5" in capsys.readouterr().err
    assert not outdir.exists()


def test_rerun_accepts_manifest_with_threads(tmp_path):
    # Manifests written before --threads was removed still carry it.
    outdir = _simulate(tmp_path)
    fitdir = tmp_path / "fit"
    assert _run("fit", "--input", str(outdir / "cohort.csv"),
                "--output-dir", str(fitdir), "--steps", "40") == 0
    manifest = json.loads((fitdir / "manifest.json").read_text())
    assert "threads" not in manifest["args"]
    manifest["args"]["threads"] = 1
    old = tmp_path / "old_manifest.json"
    old.write_text(json.dumps(manifest))
    redo = tmp_path / "redo"
    assert _run("rerun", str(old), "--output-dir", str(redo)) == 0
    for name in ("params.csv", "traces.csv"):
        assert _read(fitdir / name) == _read(redo / name)


def test_rerun_reproduces_bit_exactly(tmp_path):
    outdir = _simulate(tmp_path)
    benchdir = tmp_path / "bench"
    assert _run("benchmark", "--input", str(outdir / "cohort.csv"),
                "--output-dir", str(benchdir), "--steps", "80") == 0
    redo = tmp_path / "redo"
    assert _run("rerun", str(benchdir / "manifest.json"),
                "--output-dir", str(redo)) == 0
    for name in ("table1.csv", "report.json"):
        assert _read(benchdir / name) == _read(redo / name)


# Every GapfitError class, and the other failures main() catches, with the
# exit code the module docstring documents for it.
EXIT_CODES = [
    (UsageError("bad"), 2),
    (InsufficientDataError("short"), 2),
    (ParseError("bad cell", line=3), 1),
    (OSError("unreadable"), 1),
    (EvaluationError("nan", step=4), 3),
    (TapeMismatchError("tapes"), 3),
    (GapfitError("other"), 3),
    (FloatingPointError("overflow"), 3),
    (ZeroDivisionError("zero"), 3),
]


@pytest.mark.parametrize("exc, code", EXIT_CODES,
                         ids=[type(e).__name__ for e, _ in EXIT_CODES])
def test_error_class_maps_to_exit_code(monkeypatch, capsys, exc, code):
    def handler(args):
        raise exc

    monkeypatch.setitem(cli._HANDLERS, "gradcheck", handler)
    assert _run("gradcheck", "--trials", "1") == code
    assert capsys.readouterr().err == f"error: {exc}\n"
