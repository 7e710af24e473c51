import codecs
import csv
import io
import json
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gapfit import autodiff, cli, datagen
from gapfit.cli import main
from gapfit.datagen import save_cohort
from gapfit.errors import (EvaluationError, GapfitError, InsufficientDataError,
                           ParseError, TapeMismatchError, UsageError)
from gapfit.model import Beta, HospitalSeries, loss, predict_trajectory

from conftest import HOSTILE_IDS, _parse_count, hostile_cohort


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
    "predict --incidence-scale 0",
    "predict --incidence-scale -5",
    "predict --horizon -1",
    "predict --horizon 2",
    "predict --horizon -1 --params nope.csv",
    "fit --steps 0",
    "fit --share bb1",
], ids=lambda args: args.replace(" --", "-").replace(" ", "-"))
def test_bad_numeric_flag_exits_2(tmp_path, args):
    command, *flags = args.split()
    argv = [command, "--output-dir", str(tmp_path / "out"), *flags]
    if command != "simulate":
        sim = _simulate(tmp_path)
        argv += ["--input", str(sim / "cohort.csv")]
    if command == "predict" and "--params" not in flags:
        params = tmp_path / "params.csv"
        _write(params, ["hospital_id", "b1", "b2", "b3"],
               [["h0", "0.1", "0.0", "0.0"]])
        argv += ["--params", str(params)]
    assert _run(*argv) == 2
    assert not (tmp_path / "out").exists()


def test_simulate_with_an_overflowing_gap_length_blanks_the_rest(tmp_path):
    # a mean gap of 1e308 draws gaps of the int64 maximum; each must blank
    # the rest of its row, as a gap of about 1e12 does, with no warning
    cohorts = []
    for mean in ("1e308", "1e12"):
        outdir = tmp_path / mean
        assert _run("simulate", "--output-dir", str(outdir),
                    "--mean-gap-length", mean) == 0
        cohorts.append(_read(outdir / "cohort.csv"))
    assert cohorts[0] == cohorts[1]


def test_simulate_with_overflowing_reports_exits_2(tmp_path, capsys):
    # an incidence scale of 1e308 drives the simulated counts to inf; they
    # must not be written as unreported days
    outdir = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        rc = _run("simulate", "--output-dir", str(outdir), "--hospitals", "2",
                  "--days", "5", "--incidence-scale", "1e308")
    assert rc == 2
    assert ("reported case counts must be finite: 'h0'"
            in capsys.readouterr().err)
    assert not outdir.exists()


def test_simulate_with_overflow_hidden_by_the_mask_exits_2(tmp_path, capsys):
    # the mask hides every infinite day of this trajectory, so only the
    # simulator can see that it overflowed; it must say so without warnings
    outdir = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = _run("simulate", "--output-dir", str(outdir), "--hospitals", "1",
                  "--days", "6", "--incidence-scale", "1e308",
                  "--mcar-rate", "0.6", "--seed", "6")
    assert rc == 2
    err = capsys.readouterr().err
    assert "must be finite: 'h0'" in err and "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not outdir.exists()


def _exits_2_quietly(capsys, outdir, message, *argv):
    """``argv`` exits 2 with ``message``, warns nothing and writes nothing."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = _run(*argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert message in err and "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not outdir.exists()


@pytest.mark.parametrize("command, flags", [
    ("fit", ["--steps", "5"]),
    ("benchmark", ["--steps", "5"]),
    ("sensitivity", ["--steps", "5", "--window-len", "12"]),
    ("censor", ["--steps", "5", "--rates", "0.25", "--reps", "1"]),
    ("predict", []),
], ids=["fit", "benchmark", "sensitivity", "censor", "predict"])
def test_overflowing_scaled_incidence_exits_2(tmp_path, capsys, command,
                                              flags):
    # every fit would fall back, and predict would write -inf increments
    sim = _simulate(tmp_path, extra=["--complete"] if command == "censor"
                    else [])
    out = tmp_path / "out"
    if command == "predict":
        _write(tmp_path / "params.csv", ["hospital_id", "b1", "b2", "b3"],
               [["h0", "0.1", "0.0", "0.0"]])
        flags = ["--params", str(tmp_path / "params.csv")]
    _exits_2_quietly(capsys, out, "scaled incidence must be finite: 'h0'",
                     command, "--input", str(sim / "cohort.csv"),
                     "--output-dir", str(out), "--incidence-scale", "1e308",
                     *flags)


def test_predict_with_overflowing_future_incidence_exits_2(tmp_path, capsys):
    # the cohort's incidence scales to 1e308; only the future days overflow
    _write_tables(tmp_path, _predict_tables())
    out = tmp_path / "out"
    _exits_2_quietly(capsys, out, "scaled incidence must be finite: 'a'",
                     "predict", "--input", str(tmp_path / "cohort.csv"),
                     "--output-dir", str(out),
                     "--params", str(tmp_path / "params.csv"),
                     "--horizon", "3",
                     "--future-z", str(tmp_path / "future.csv"),
                     "--incidence-scale", "1e308")


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


def test_censor_repeated_rate_exits_2_before_writing(tmp_path, capsys):
    outdir = _simulate(tmp_path, extra=("--complete",))
    cendir = tmp_path / "cen"
    rc = _run("censor", "--input", str(outdir / "cohort.csv"),
              "--output-dir", str(cendir), "--reps", "2",
              "--rates", "0.25,0.5,0.250", "--steps", "20")
    assert rc == 2
    assert "0.25" in capsys.readouterr().err
    assert not cendir.exists()


def test_censor_on_fewer_than_4_days_exits_2_before_any_fit(tmp_path, capsys,
                                                           monkeypatch):
    fits = []
    monkeypatch.setattr("gapfit.evaluation.fit_shared",
                        lambda *args, **kwargs: fits.append(args))
    cohort = tmp_path / "cohort.csv"
    _write(cohort, ["hospital_id", "day", "cases", "incidence"],
           [[h, d, 2.0 + d, 1.0] for h in "ab" for d in (1, 2, 3)])
    cendir = tmp_path / "cen"
    rc = _run("censor", "--input", str(cohort), "--output-dir", str(cendir),
              "--reps", "2", "--rates", "0.25", "--steps", "20")
    assert rc == 2
    assert "needs at least 4 days, got T=3" in capsys.readouterr().err
    assert fits == []
    assert not cendir.exists()


@pytest.mark.parametrize("command", ["fit", "sensitivity"])
def test_out_of_memory_exits_3_with_one_line(tmp_path, capsys, monkeypatch,
                                             command):
    # numpy raises MemoryError when a fit's (steps + 1, K) trace cannot be
    # allocated; injected here rather than asked of the host
    message = ("Unable to allocate 21.8 TiB for an array with shape "
               "(1000000000001, 3) and data type float64")

    def refuse(*args, **kwargs):
        raise MemoryError(message)

    outdir = _simulate(tmp_path)
    capsys.readouterr()
    monkeypatch.setattr("gapfit.sharing._run_batch", refuse)
    target = tmp_path / "out"
    extra = ("--window-len", "20") if command == "sensitivity" else ()
    rc = _run(command, "--input", str(outdir / "cohort.csv"),
              "--output-dir", str(target), "--steps", "1000000000000", *extra)
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: {command}: out of memory ({message})\n"
    assert "Traceback" not in captured.out + captured.err
    assert not target.exists()


def test_gradcheck_runs_and_rejects_zero_trials(tmp_path):
    assert _run("gradcheck", "--trials", "25", "--seed", "3") == 0
    assert _run("gradcheck", "--trials", "0") == 2


def _reference_gradcheck(trials, seed):
    """The per-trial loop ``gradcheck`` replaced, kept as oracle: the kept
    trials' coefficients and discrepancies, and the failure count."""
    rng = np.random.Generator(np.random.PCG64(seed))
    betas, discs = [], []
    for _ in range(trials):
        T = int(rng.integers(8, 40))
        y = rng.uniform(0.0, 25.0, T)
        gaps = rng.random(T) < 0.25
        gaps[0] = False
        y[gaps] = np.nan
        if np.isfinite(y).sum() < 2:
            continue
        series = HospitalSeries("gc", y, rng.uniform(0.0, 5.0, T))
        beta = rng.uniform(-0.4, 0.4, 3)
        betas.append(beta)
        discs.append(autodiff.check_gradient(
            lambda b: loss(series, b), beta, h=1e-6))
    return betas, discs, sum(d >= 1e-6 for d in discs)


# seed 158 skips its trial 888, which has one report
@pytest.mark.parametrize("trials, seed", [(200, s) for s in range(10)]
                         + [(1, s) for s in range(10)] + [(900, 158)])
def test_gradcheck_matches_per_trial_reference(tmp_path, monkeypatch, trials,
                                               seed):
    betas, discs, failures = _reference_gradcheck(trials, seed)
    checked = []

    def recorded(f, x, h):
        disc = check_gradient(f, x, h)
        checked.append((x, disc))
        return disc

    check_gradient = autodiff.check_gradient
    monkeypatch.setattr(autodiff, "check_gradient", recorded)
    assert _run("gradcheck", "--trials", str(trials), "--seed", str(seed),
                "--output-dir", str(tmp_path)) == 0
    report = json.loads((tmp_path / "gradcheck.json").read_text())
    assert (trials, seed) != (900, 158) or len(betas) == trials - 1
    (x, disc), = checked
    assert np.array_equal(x, np.array(betas).T)
    np.testing.assert_allclose(disc, discs, rtol=0.0, atol=1e-12)
    assert report["trials"] == trials
    assert report["failures"] == failures
    assert abs(report["max_discrepancy"] - max(discs)) <= 1e-12


@pytest.mark.parametrize("command, seed", [
    ("simulate", -1), ("censor", -1), ("gradcheck", -1), ("rerun", -1),
    ("rerun", "3"), ("rerun", 1.5), ("rerun", None), ("rerun", True)])
def test_bad_seed_exits_2_before_writing(tmp_path, capsys, command, seed):
    outdir = tmp_path / "out"
    if command == "rerun":
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "command": "gradcheck",
            "args": {"trials": 5, "seed": seed, "output_dir": str(outdir)}}))
        argv = ["rerun", str(manifest)]
    else:
        argv = [command, "--seed", str(seed), "--output-dir", str(outdir)]
        if command == "censor":
            cohort = _simulate(tmp_path, extra=("--complete",))
            argv += ["--input", str(cohort / "cohort.csv")]
    assert _run(*argv) == 2
    assert ("seed must be a non-negative integer, got " + repr(seed)
            in capsys.readouterr().err)
    assert not outdir.exists()


def test_traces_are_written_as_csv_writes_them(tmp_path):
    ids = ["a,b", 'say "hi"', "cr\rlf\n", " spaced ", "", "plain", "\u00e9"]
    values = [1.5, -0.0, 1e-300, float("inf"), 2.5, 0.0]
    # column k records its first k losses and is NaN after them, so the
    # first hospital recorded none and is written as one NaN row
    trace = np.full((len(values), len(ids)), np.nan)
    for k in range(len(ids)):
        trace[:k, k] = values[:k]
    traces = [(hid, values[:k] or [float("nan")])
              for k, hid in enumerate(ids)]
    want = tmp_path / "want.csv"
    with open(want, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["hospital_id", "step", "loss"])
        writer.writerows([hid, step, repr(v)] for hid, trace in traces
                         for step, v in enumerate(trace))
    got = tmp_path / "got.csv"
    cli._write_traces(got, ids, trace)
    assert _read(got) == _read(want)


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



def _reference_trajectory(args, path):
    """``trajectory.csv`` as cmd_predict once built it, row by row through
    csv.writer, kept as its oracle."""
    cohort = cli._load(args)
    betas = cli._load_params(args["params"])
    horizon = args["horizon"]
    future_z = (cli._load_future_z(args["future_z"], "incidence")
                if horizon > 0 else {})
    y = np.pad(cohort.y, ((0, 0), (0, horizon)), constant_values=np.nan)
    z = np.pad(cohort.z, ((0, 0), (0, horizon)))
    kept = []
    for k, (hid, n) in enumerate(zip(cohort.ids, cohort.days.tolist())):
        if hid in betas:
            z[k, n:n + horizon - 1] = [future_z[hid, d]
                                       for d in range(n + 1, n + horizon)]
            kept.append(k)
    y, r = y[kept], np.isfinite(y[kept])
    coefs = np.array([betas[cohort.ids[k]].as_array() for k in kept])
    y_tilde, dy_hat = predict_trajectory(
        y, r, z[kept] * args["incidence_scale"], coefs.reshape(-1, 3))
    rows = []
    for i, k in enumerate(kept):
        hid, T = cohort.ids[k], int(cohort.days[k])
        first = int(np.argmax(r[i]))
        cells = zip(*(a[i, :T + horizon].tolist()
                      for a in (y, r, y_tilde, dy_hat)))
        for t, (obs, rep, state, inc) in enumerate(cells):
            if t >= T:
                kind = "forecast"
            elif t < first:
                kind = "pre-report"
            else:
                kind = "observed" if rep else "bridged"
            rows.append([hid, t + 1, repr(obs) if rep else "",
                         repr(state) if t >= first else "",
                         repr(inc) if t > first else "", kind])
    _write(path, ["hospital_id", "day", "observed", "y_tilde", "dy_hat",
                  "kind"], rows)


@pytest.mark.parametrize("chunk", [1, 9, 4096])
@pytest.mark.parametrize("horizon", [0, 3])
def test_predict_writes_what_the_row_builder_wrote(tmp_path, monkeypatch,
                                                   chunk, horizon):
    # small blocks split the trajectories between and inside hospitals
    monkeypatch.setattr(datagen, "_CHUNK_ROWS", chunk)
    cohort, truth = hostile_cohort()
    save_cohort(cohort, tmp_path / "cohort.csv")
    # the last hospital has no parameters, the one before it a blank row
    _write(tmp_path / "params.csv", ["hospital_id", "b1", "b2", "b3"],
           [[hid, *beta.as_array().tolist()]
            for hid, beta in zip(HOSTILE_IDS[:-2], truth.betas)]
           + [[HOSTILE_IDS[-2], "", "", ""]])
    _write(tmp_path / "future.csv", ["hospital_id", "day", "incidence"],
           [[hid, n + d, 0.5 * d] for hid, n in zip(cohort.ids, cohort.days)
            for d in (1, 2, 3)])
    args = {"input": str(tmp_path / "cohort.csv"),
            "incidence_column": "incidence",
            "params": str(tmp_path / "params.csv"), "horizon": horizon,
            "future_z": str(tmp_path / "future.csv"), "incidence_scale": 0.01}
    _reference_trajectory(args, tmp_path / "want.csv")
    assert _run("predict", "--input", args["input"], "--output-dir",
                str(tmp_path / "out"), "--params", args["params"],
                "--horizon", str(horizon), "--future-z", args["future_z"]) == 0
    got = _read(tmp_path / "out" / "trajectory.csv")
    assert got == _read(tmp_path / "want.csv")
    assert b"pre-report" in got and b"bridged" in got
    assert (b"forecast" in got) == (horizon > 0)


class _RecordedFile:
    """A file opened for writing that records the length of every write."""

    def __init__(self, fh, sizes):
        self._fh, self.sizes = fh, sizes

    def write(self, text):
        self.sizes.append(len(text))
        return self._fh.write(text)

    def close(self):
        self._fh.close()


def test_large_artifacts_are_written_a_block_at_a_time(tmp_path, monkeypatch):
    writes = {}  # file name -> lengths of its writes

    def recording_open(path, mode="r", **kwargs):
        fh = open(path, mode, **kwargs)
        if "w" not in mode:
            return fh
        name = os.path.basename(path)
        return _RecordedFile(fh, writes.setdefault(name, []))

    monkeypatch.setattr(datagen, "open", recording_open, raising=False)
    sim = tmp_path / "sim"
    assert _run("simulate", "--output-dir", str(sim), "--seed", "3",
                "--hospitals", "500", "--days", "70") == 0
    ids = [f"h{k:03d}" for k in range(500)]
    _write(tmp_path / "params.csv", ["hospital_id", "b1", "b2", "b3"],
           [[hid, 0.1, -0.01, 0.2] for hid in ids])
    _write(tmp_path / "future.csv", ["hospital_id", "day", "incidence"],
           [[hid, day, 1.0] for hid in ids for day in (71, 72, 73)])
    assert _run("predict", "--input", str(sim / "cohort.csv"),
                "--output-dir", str(tmp_path / "pred"),
                "--params", str(tmp_path / "params.csv"), "--horizon", "3",
                "--future-z", str(tmp_path / "future.csv")) == 0
    for path in (sim / "truth.csv", tmp_path / "pred" / "trajectory.csv"):
        sizes = writes[path.name]
        assert sum(sizes) == os.path.getsize(path) > 2_000_000
        # one block of rows per write, never the whole file
        assert len(sizes) > 8 and max(sizes) < 1_000_000


@pytest.mark.parametrize("text, missing", [
    ("", ["b1", "b2", "b3", "hospital_id"]),
    ("hospital_id,day,cases,incidence\nh0,1,3.0,1.0\n", ["b1", "b2", "b3"]),
    ("hospital_id,b1,b3\nh0,0.1,0.2\n", ["b2"]),
])
def test_predict_params_without_coefficients_exits_1(tmp_path, capsys, text,
                                                     missing):
    sim = _simulate(tmp_path)
    params = tmp_path / "params.csv"
    params.write_text(text)
    out = tmp_path / "pred"
    assert _run("predict", "--input", str(sim / "cohort.csv"),
                "--output-dir", str(out), "--params", str(params)) == 1
    assert (f"{params}: missing columns {missing}"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("rows", ["", "a,5,2.0\n"])
def test_predict_future_z_without_incidence_exits_1(tmp_path, capsys, rows):
    _write_tables(tmp_path, _predict_tables())
    future = tmp_path / "future.csv"
    future.write_text("hospital_id,day,inc\n" + rows)
    assert _predict(tmp_path) == 1
    assert (f"{future}: missing columns ['incidence']"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_predict_checks_future_z_before_padding_the_horizon(tmp_path, capsys):
    # future.csv covers days 5-7 only; the horizon would need 8 MB a row
    _write_tables(tmp_path, _predict_tables())
    tracemalloc.start()
    try:
        rc = _run("predict", "--input", str(tmp_path / "cohort.csv"),
                  "--output-dir", str(tmp_path / "out"),
                  "--params", str(tmp_path / "params.csv"),
                  "--horizon", "1000000",
                  "--future-z", str(tmp_path / "future.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert "future z missing for a day 8" in capsys.readouterr().err
    assert peak < 5_000_000
    assert not (tmp_path / "out").exists()


# Each case puts one bad cell into an otherwise valid predict run: (file,
# 0-based data row, column, cell).  Every one must exit 1 naming its line.
# A cell of None moves its column to the end of the header and cuts the row
# short before it.
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
    ("params", 0, "hospital_id", None),
    ("future", 0, "hospital_id", None),
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
        _write(tmp_path / f"{name}.csv", list(max(rows, key=len)),
               [list(r.values()) for r in rows])


@pytest.mark.parametrize("target, index, column, cell", BAD_CELLS)
def test_bad_input_cell_exits_1_with_line(tmp_path, capsys, target, index,
                                          column, cell):
    tables = _predict_tables()
    if cell is None:
        for row in tables[target]:
            row[column] = row.pop(column)
        del tables[target][index][column]
    else:
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


def test_predict_reads_files_with_a_byte_order_mark(tmp_path):
    _write_tables(tmp_path, _predict_tables())
    assert _predict(tmp_path) == 0
    plain = _read(tmp_path / "out" / "trajectory.csv")
    for name in ("cohort", "params", "future"):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    (tmp_path / "out").rename(tmp_path / "plain")
    assert _predict(tmp_path) == 0
    assert _read(tmp_path / "out" / "trajectory.csv") == plain


# -- the params and future-z readers against row-by-row ones ----------------

def _reference_rows(path, names):
    """(physical line, cells of ``names``) per record of a CSV file, read by
    csv.DictReader; a header without all of ``names`` raises as the readers
    do."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = sorted(set(names) - set(reader.fieldnames or ()))
        if missing:
            raise ParseError(f"{path}: missing columns {missing}", line=1)
        for row in reader:
            yield reader.line_num, [row[name] for name in names]


def _reference_params(path):
    """The row-by-row params reader, kept as the oracle of _load_params."""
    betas = {}
    for line, (hid, *cells) in _reference_rows(
            path, ["hospital_id", "b1", "b2", "b3"]):
        if not cells[0]:
            continue
        try:
            if hid is None:
                raise KeyError("hospital_id")
            coefs = [float(c) for c in cells]
        except (KeyError, TypeError, ValueError):
            raise ParseError(f"{path}:{line}: bad parameter row",
                             line=line) from None
        if not np.isfinite(coefs).all():
            raise ParseError(f"{path}:{line}: non-finite coefficient",
                             line=line)
        if hid in betas:
            raise ParseError(
                f"{path}:{line}: duplicate parameters for {hid!r}", line=line)
        betas[hid] = Beta(*coefs)
    return betas


def _reference_future_z(path):
    """The row-by-row future-z reader, kept as the oracle of
    _load_future_z."""
    future_z = {}
    for line, (hid, day, cell) in _reference_rows(
            path, ["hospital_id", "day", "incidence"]):
        try:
            if hid is None:
                raise KeyError("hospital_id")
            day = int(day)
        except (KeyError, TypeError, ValueError):
            raise ParseError(f"{path}:{line}: bad future-z row",
                             line=line) from None
        value = _parse_count(cell, "incidence", path, line)
        if (hid, day) in future_z:
            raise ParseError(f"{path}:{line}: duplicate day {day} for {hid!r}",
                             line=line)
        future_z[hid, day] = value
    return future_z


# Headers with reordered, extra, repeated (the last one counts) and missing
# columns, per file.
_TABLE_HEADERS = {
    "params": [["hospital_id", "b1", "b2", "b3"],
               ["b3", "note", "b1", "hospital_id", "b2"],
               ["hospital_id", "b1", "b2", "b3", "b1"],
               ["b1", "b2", "b3", "hospital_id", "hospital_id"],
               ["hospital_id", "b1", "b3"]],
    "future": [["hospital_id", "day", "incidence"],
               ["incidence", "note", "day", "hospital_id"],
               ["hospital_id", "day", "day", "incidence"],
               ["day", "incidence", "hospital_id", "hospital_id"],
               ["hospital_id", "incidence"]],
}
_BAD_CELLS = st.one_of(
    st.sampled_from(["", " ", "1_0", " 3 ", "nan", "-0.0", "1e400", "-1", "0",
                     "\x00", "\u0663", "+2", "\u2003", "-inf", "5e-324",
                     "99999999999999999999", "x"]),
    st.text(max_size=3))
_NUMBERS = st.floats(-1.0, 5.0).map(repr)
_COUNTS = st.floats(0.0, 1e12).map(repr)


@st.composite
def _table_texts(draw, target):
    """A params or future-z file: valid rows for up to three hospitals,
    then shuffled, with garbage put in a cell or a whole row, rows cut
    short, lengthened, repeated or dropped, and blank lines put in."""
    header = draw(st.sampled_from(_TABLE_HEADERS[target]))
    ids = draw(st.lists(st.sampled_from(["a", "b", "", " c ", "None", "a\nb"]),
                        min_size=1, max_size=3, unique=True))
    records = []
    for hid in ids:
        # up to two params rows per hospital, so not every file repeats
        # one; a row with an empty b1 is skipped and repeats none
        for day in range(5, 5 + draw(st.integers(1, 3 if target == "future"
                                                 else 2))):
            cells = {"hospital_id": hid, "day": str(day),
                     "b1": draw(st.sampled_from(["", "", "nan", "0.1"])
                                | _NUMBERS),
                     "b2": draw(_NUMBERS), "b3": draw(_NUMBERS),
                     "incidence": draw(st.sampled_from(["-1", "inf", " 2 "])
                                       | _COUNTS)}
            records.append([cells[name] if name in cells
                            and name not in header[i + 1:]
                            else draw(_BAD_CELLS)
                            for i, name in enumerate(header)])
    if draw(st.booleans()):
        records = draw(st.permutations(records))
    for kind in draw(st.lists(st.sampled_from(
            ["garbage"] * 3 + ["garbled", "short", "long", "blank",
                               "repeat", "drop"]), max_size=4)):
        if not records:
            break
        i = draw(st.integers(0, len(records) - 1))
        row = list(records[i])
        if kind == "garbage" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(_BAD_CELLS)
        elif kind == "garbled":
            row = [draw(_BAD_CELLS) for _ in row]
        elif kind == "short" and row:
            row = row[:draw(st.integers(0, len(row) - 1))]
        elif kind == "long":
            row.append(draw(_BAD_CELLS))
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


_TABLE_READERS = {
    "params": (cli._load_params, _reference_params),
    "future": (lambda path: cli._load_future_z(path, "incidence"),
               _reference_future_z),
}


def _table_outcome(load, path):
    """What ``load`` makes of ``path``: each entry with its values'
    reprs, or the message and line of the error it raises."""
    try:
        table = load(path)
    except ParseError as exc:
        return str(exc), exc.line
    return [(key, repr(value)) for key, value in table.items()]


def _load_cohort_table(path):
    cohort, warnings = datagen.load_cohort(path)
    return {"ids": cohort.ids, "y": cohort.y.tobytes(),
            "z": cohort.z.tobytes(), "warnings": warnings}


@pytest.mark.parametrize("target", ["cohort", "params", "future"])
def test_readers_accept_a_utf8_byte_order_mark(tmp_path, target):
    # spreadsheet "CSV UTF-8" exports start the file with one
    load = {"cohort": _load_cohort_table,
            **{name: pair[0] for name, pair in _TABLE_READERS.items()}}[target]
    _write_tables(tmp_path, _predict_tables())
    path = tmp_path / f"{target}.csv"
    good = path.read_bytes()
    line = len(good.splitlines()) + 1
    outcomes = []
    for text in (good, good + b"a,x,x,x\r\n"):
        for bom in (b"", codecs.BOM_UTF8):
            path.write_bytes(bom + text)
            outcomes.append(_table_outcome(load, path))
    plain, with_bom, fault, fault_with_bom = outcomes
    assert isinstance(plain, list) and with_bom == plain
    assert fault_with_bom == fault
    assert fault[0].startswith(f"{path}:{line}: bad ") and fault[1] == line


@pytest.mark.parametrize("target", ["params", "future"])
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), chunk=st.sampled_from([1, 2, 3, 7, 4096]))
def test_table_readers_match_row_by_row_readers(tmp_path, monkeypatch,
                                                target, data, chunk):
    # small chunks put chunk boundaries between any two records
    monkeypatch.setattr(datagen, "_CHUNK_ROWS", chunk)
    path = tmp_path / f"{target}.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(data.draw(_table_texts(target)))
    load, reference = _TABLE_READERS[target]
    assert _table_outcome(load, path) == _table_outcome(reference, path)


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
    # every command's manifest, each arg as the command's own parser wrote it
    sim = _simulate(tmp_path)
    full = _simulate(tmp_path, "full", extra=["--complete"])
    cohort = str(sim / "cohort.csv")
    future = tmp_path / "future.csv"
    _write(future, ["hospital_id", "day", "incidence"],
           [[f"h{k}", day, 2.0] for k in range(8) for day in (25, 26)])
    runs = {
        "fit": ["--input", cohort, "--steps", "5", "--auto-eta",
                "--share", "b2"],
        "benchmark": ["--input", cohort, "--steps", "80"],
        "sensitivity": ["--input", cohort, "--steps", "5",
                        "--window-len", "10"],
        "censor": ["--input", str(full / "cohort.csv"), "--steps", "5",
                   "--reps", "1", "--rates", "0.5"],
        "gradcheck": ["--trials", "3"],
        "predict": ["--input", cohort, "--horizon", "3",
                    "--params", str(tmp_path / "fit" / "params.csv"),
                    "--future-z", str(future)],
    }
    for command, argv in runs.items():
        assert _run(command, "--output-dir", str(tmp_path / command),
                    *argv) == 0
    for outdir in [sim, full, *(tmp_path / command for command in runs)]:
        redo = tmp_path / "redo" / outdir.name
        assert _run("rerun", str(outdir / "manifest.json"),
                    "--output-dir", str(redo)) == 0
        names = sorted(p.name for p in outdir.iterdir())
        assert sorted(p.name for p in redo.iterdir()) == names
        for name in names:
            if name != "manifest.json":
                assert _read(outdir / name) == _read(redo / name), name


@pytest.mark.parametrize("text,code,message", [
    ('{"command": "fit", ', 1, "unreadable manifest"),
    ("[1,2]", 1, "manifest must be a JSON object"),
    ('{"command": "fit"}', 1, 'manifest has no "args" object'),
    ('{"command": "fit", "args": [1]}', 1, 'manifest has no "args" object'),
    ('{"command": "fit", "args": {}}', 2, "manifest args lack 'input'"),
])
def test_rerun_rejects_a_bad_manifest(tmp_path, capsys, text, code, message):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(text)
    redo = tmp_path / "redo"
    assert _run("rerun", str(manifest), "--output-dir", str(redo)) == code
    err = capsys.readouterr().err
    assert str(manifest) in err and message in err
    assert not redo.exists()


def test_rerun_names_a_missing_arg_before_writing(tmp_path, capsys):
    outdir = _simulate(tmp_path)
    fitdir = tmp_path / "fit"
    assert _run("fit", "--input", str(outdir / "cohort.csv"),
                "--output-dir", str(fitdir), "--steps", "5") == 0
    manifest = json.loads((fitdir / "manifest.json").read_text())
    del manifest["args"]["steps"]
    old = tmp_path / "old_manifest.json"
    old.write_text(json.dumps(manifest))
    redo = tmp_path / "redo"
    assert _run("rerun", str(old), "--output-dir", str(redo)) == 2
    assert "manifest args lack 'steps'" in capsys.readouterr().err
    assert not redo.exists()


def _manifest_of(tmp_path, command):
    """The manifest of a short ``command`` run on a 6 x 20 cohort."""
    sim = _simulate(tmp_path, extra=["--hospitals", "6", "--days", "20"])
    outdir = tmp_path / command
    extra = ["--window-len", "10"] if command == "sensitivity" else []
    assert _run(command, "--input", str(sim / "cohort.csv"), "--output-dir",
                str(outdir), "--steps", "5", *extra) == 0
    return json.loads((outdir / "manifest.json").read_text())


@pytest.mark.parametrize("command, key, value", [
    ("fit", "steps", "5"),
    ("fit", "steps", None),
    ("fit", "steps", 2.5),
    ("fit", "steps", True),
    ("fit", "lam", "0"),
    ("fit", "lam", False),
    ("fit", "incidence_scale", "0.01"),
    ("fit", "auto_eta", "yes"),
    ("fit", "auto_eta", 1),
    ("fit", "share", 3),
    ("fit", "eta", 5),
    ("fit", "method", "newton"),
    ("fit", "input", 7),
    ("fit", "input", None),
    ("sensitivity", "window_len", "3"),
    ("sensitivity", "baseline", "foo"),
])
def test_rerun_rejects_a_wrongly_typed_arg(tmp_path, capsys, command, key,
                                           value):
    manifest = _manifest_of(tmp_path, command)
    manifest["args"][key] = value
    old = tmp_path / "old_manifest.json"
    old.write_text(json.dumps(manifest))
    redo = tmp_path / "redo"
    assert _run("rerun", str(old), "--output-dir", str(redo)) == 2
    assert f"manifest arg {key!r}" in capsys.readouterr().err
    assert not redo.exists()


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
