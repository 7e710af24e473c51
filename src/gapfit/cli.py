"""Command-line interface.

Subcommands cover simulation, fitting, benchmarking, sliding-window
sensitivity, censor-and-recover validation, gradient checking, and trajectory
prediction.  Every command writes a ``manifest.json`` capturing the resolved
arguments and seed; ``gapfit rerun manifest.json --output-dir DIR``
reproduces the run bit-exactly.

Exit codes: 0 success, 1 I/O error, 2 configuration/usage error,
3 internal numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys

import numpy as np

from . import __version__, autodiff
from .benchmarks import BenchmarkKind
from .datagen import (MissingnessSpec, SimSpec, _codes, _CsvColumns, _is_count,
                      _parse_cells, _parse_count, load_cohort, save_cohort,
                      simulate_cohort)
from .errors import (EvaluationError, GapfitError, InsufficientDataError,
                     ParseError, UsageError)
from .evaluation import (BenchmarkPredictor, IncrementPredictor,
                         censor_sweep, last_point_error, sensitivity_run)
from .model import Beta, HospitalSeries, loss as model_loss, predict_trajectory
from .optimizer import FitConfig
from .sharing import ALL_SHARING_SPECS, SharingSpec, fit_shared

log = logging.getLogger("gapfit")


def _setup_logging():
    level = os.environ.get("GAPFIT_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _fmt(x):
    if x is None:
        return ""
    return repr(float(x))


def _artifact(outdir, name):
    """Path of one output file.  The directory is made at the first write, so
    a command rejected before it leaves no directory behind."""
    os.makedirs(outdir, exist_ok=True)
    return os.path.join(outdir, name)


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(outdir, command, args, artifacts):
    manifest = {
        "command": command,
        "version": __version__,
        "seed": args.get("seed"),
        "args": args,
        "artifacts": sorted(artifacts),
    }
    _write_json(_artifact(outdir, "manifest.json"), manifest)


def _require_finite(name, values):
    """A NaN or infinite number in ``values`` is a usage error."""
    if not np.isfinite(values).all():
        raise UsageError(f"{name} must be finite, got {values!r}")


def _parse_floats(text, n=None):
    parts = [p for p in text.split(",") if p.strip() != ""]
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise UsageError(f"cannot parse float list {text!r}") from None
    if n is not None and len(values) != n:
        raise UsageError(f"expected {n} comma-separated values, got {text!r}")
    _require_finite(f"each value of {text!r}", values)
    return values


def _dispatch(handler, args):
    """Run ``handler`` after checking that every float argument is finite."""
    for key, value in args.items():
        if isinstance(value, float):
            _require_finite(key, value)
    return handler(args)


def _fit_config(args):
    return FitConfig(
        eta=tuple(_parse_floats(args["eta"], 3)),
        steps=args["steps"],
        lam=args["lam"],
        method=args["method"],
        incidence_scale=args["incidence_scale"],
        auto_eta=args.get("auto_eta", False),
        eta_safety=args.get("eta_safety", 0.2),
        warm_start=args.get("warm_start", False),
    )


def _add_fit_flags(p):
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--eta", default="1e-3,1e-3,1e-4",
                   help="per-parameter step sizes b1,b2,b3")
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--method", choices=["gd", "adam"], default="gd")
    p.add_argument("--incidence-scale", type=float, default=0.01)
    p.add_argument("--auto-eta", action="store_true",
                   help="per-hospital step sizes from the imputed design")
    p.add_argument("--eta-safety", type=float, default=0.2)
    p.add_argument("--warm-start", action="store_true",
                   help="start each hospital at its imputed OLS estimate")


def _add_io_flags(p, needs_input=True):
    if needs_input:
        p.add_argument("--input", required=True, help="cohort CSV path")
        p.add_argument("--incidence-column", default="incidence")
    p.add_argument("--output-dir", required=True)


def _load(args):
    cohort, warnings = load_cohort(args["input"],
                                   incidence_column=args["incidence_column"])
    for w in warnings:
        log.warning("%s", w)
    if not cohort:
        raise UsageError(f"no usable hospitals in {args['input']}")
    return sorted(cohort, key=lambda s: s.id), warnings


# ---------------------------------------------------------------------------
# command handlers (each takes the resolved-args dict)


def cmd_simulate(args):
    outdir = args["output_dir"]
    missing = MissingnessSpec(mcar_rate=args["mcar_rate"],
                              gap_start_prob=args["gap_start_prob"],
                              mean_gap_length=args["mean_gap_length"])
    if args["complete"]:
        missing = MissingnessSpec(mcar_rate=0.0, gap_start_prob=0.0)
    spec = SimSpec(n_hospitals=args["hospitals"], n_days=args["days"],
                   noise_scale=args["noise"], missingness=missing,
                   incidence_scale=args["incidence_scale"], seed=args["seed"])
    cohort, truth = simulate_cohort(spec)
    cohort_path = _artifact(outdir, "cohort.csv")
    truth_path = _artifact(outdir, "truth.csv")
    save_cohort(cohort, cohort_path, truth=truth, truth_path=truth_path)
    _write_manifest(outdir, "simulate", args, ["cohort.csv", "truth.csv"])
    return 0


def cmd_fit(args):
    cohort, _ = _load(args)
    outdir = args["output_dir"]
    config = _fit_config(args)
    spec = SharingSpec.parse(args["share"])
    cohort_fit = fit_shared(cohort, spec, config)
    param_rows = []
    trace_rows = []
    for s, res in zip(cohort, cohort_fit.results):
        if res is None:
            param_rows.append([s.id, "", "", "", "false", "true", 0, ""])
            continue
        coefs = res.beta.as_array()
        # a diverged fit's non-finite coefficients are left blank, so
        # ``predict`` skips that hospital as one without parameters
        cells = ([_fmt(c) for c in coefs] if np.isfinite(coefs).all()
                 else ["", "", ""])
        param_rows.append([
            s.id, *cells,
            "true" if res.converged else "false",
            "true" if res.fell_back else "false",
            res.steps_used, _fmt(res.loss_trace[-1]),
        ])
        for step, value in enumerate(res.loss_trace):
            trace_rows.append([s.id, step, _fmt(value)])
    _write_csv(_artifact(outdir, "params.csv"),
               ["hospital_id", "b1", "b2", "b3", "converged", "fell_back",
                "steps_used", "final_loss"], param_rows)
    _write_csv(_artifact(outdir, "traces.csv"),
               ["hospital_id", "step", "loss"], trace_rows)
    _write_manifest(outdir, "fit", args, ["params.csv", "traces.csv"])
    return 0


def cmd_benchmark(args):
    cohort, _ = _load(args)
    outdir = args["output_dir"]
    config = _fit_config(args)
    reports = [last_point_error(cohort, BenchmarkPredictor(kind))
               for kind in BenchmarkKind]
    reports.append(last_point_error(
        cohort, IncrementPredictor(SharingSpec.parse(args["share"]), config),
        BenchmarkPredictor(BenchmarkKind.MEAN)))
    # a model that scored no hospital has no sum; 0.0 would read as perfect
    summaries = [dict(r.summary, sum=r.summary["sum"] if r.errors else None)
                 for r in reports]
    rows = [[r.model, _fmt(s["sum"]), _fmt(s["mean"]), _fmt(s["q1"]),
             _fmt(s["median"]), _fmt(s["q3"]), r.fallback_count, len(r.errors)]
            for r, s in zip(reports, summaries)]
    _write_csv(_artifact(outdir, "table1.csv"),
               ["model", "sum", "mean", "q1", "median", "q3", "fallback_count",
                "n_scored"], rows)
    payload = {r.model: {"summary": s,
                         "fallback_count": r.fallback_count,
                         "n_scored": len(r.errors),
                         "flags": r.flags,
                         "errors": {k: r.errors[k] for k in sorted(r.errors)}}
               for r, s in zip(reports, summaries)}
    _write_json(_artifact(outdir, "report.json"), payload)
    _write_manifest(outdir, "benchmark", args, ["table1.csv", "report.json"])
    return 0


def cmd_sensitivity(args):
    cohort, _ = _load(args)
    outdir = args["output_dir"]
    config = _fit_config(args)
    report = sensitivity_run(cohort, ALL_SHARING_SPECS, config,
                             baseline=BenchmarkKind(args["baseline"]),
                             window_length=args["window_len"])
    _write_csv(_artifact(outdir, "table2.csv"),
               ["combination", "q1", "median", "q3"],
               [[row.label, _fmt(row.q1), _fmt(row.median), _fmt(row.q3)]
                for row in report.rows])
    _write_csv(_artifact(outdir, "windows.csv"),
               ["window_start", "window_end",
                *[row.label for row in report.rows]],
               [[w.start, w.end,
                 *[_fmt(row.diffs[i]) for row in report.rows]]
                for i, w in enumerate(report.windows)])
    payload = {
        "baseline": report.baseline,
        "window_length": report.window_length,
        "windows": [[w.start, w.end] for w in report.windows],
        "rows": {row.label: {"q1": row.q1, "median": row.median,
                             "q3": row.q3, "diffs": row.diffs}
                 for row in report.rows},
        "flags": report.flags,
    }
    _write_json(_artifact(outdir, "report.json"), payload)
    _write_manifest(outdir, "sensitivity", args,
                    ["table2.csv", "windows.csv", "report.json"])
    return 0


def cmd_censor(args):
    cohort, _ = _load(args)
    outdir = args["output_dir"]
    config = _fit_config(args)
    rates = _parse_floats(args["rates"])
    if not rates:
        raise UsageError("at least one censor rate is required")
    reports = censor_sweep(cohort, rates, args["reps"], args["seed"], config)
    rows = []
    payload = {}
    for rep in reports:
        payload[str(rep.rate)] = {m: rep.summary[m] for m in rep.summary}
        for m in rep.summary:
            s = rep.summary[m]
            rows.append([_fmt(rep.rate), m, _fmt(s["mean"]), _fmt(s["q1"]),
                         _fmt(s["median"]), _fmt(s["q3"])])
    _write_csv(_artifact(outdir, "recovery.csv"),
               ["rate", "model", "mean", "q1", "median", "q3"], rows)
    _write_json(_artifact(outdir, "report.json"), payload)
    _write_manifest(outdir, "censor", args, ["recovery.csv", "report.json"])
    return 0


def cmd_gradcheck(args):
    if args["trials"] < 1:
        raise UsageError("trials must be >= 1")
    rng = np.random.Generator(np.random.PCG64(args["seed"]))
    worst = 0.0
    failures = 0
    for _ in range(args["trials"]):
        T = int(rng.integers(8, 40))
        y = rng.uniform(0.0, 25.0, T)
        gaps = rng.random(T) < 0.25
        gaps[0] = False
        y[gaps] = np.nan
        if np.isfinite(y).sum() < 2:
            continue
        series = HospitalSeries("gc", y, rng.uniform(0.0, 5.0, T))
        beta = rng.uniform(-0.4, 0.4, 3)
        disc = autodiff.check_gradient(
            lambda b: model_loss(series, b), beta, h=1e-6)
        worst = max(worst, disc)
        if disc >= 1e-6:
            failures += 1
    print(f"gradcheck: {args['trials']} trials, max discrepancy {worst:.3e}, "
          f"{failures} failures")
    if args.get("output_dir"):
        _write_json(_artifact(args["output_dir"], "gradcheck.json"),
                    {"trials": args["trials"], "max_discrepancy": worst,
                     "failures": failures})
        _write_manifest(args["output_dir"], "gradcheck", args,
                        ["gradcheck.json"])
    if failures:
        raise EvaluationError(f"{failures} gradient checks failed")
    return 0


def _load_params(path):
    """Coefficients per hospital id from a ``params.csv``; a row with an
    empty ``b1`` (a hospital without a usable fit) is skipped."""
    ids = {}  # hospital id -> index, in order of first appearance

    def convert(start, columns):
        hid, *cells = columns
        used = np.fromiter(map(bool, cells[0]), bool, len(hid))
        coefs = np.column_stack([_parse_cells(float, c, np.nan)[0]
                                 for c in cells])
        # a skipped row keys on its own position (< 0), so it repeats no row
        hosp = -1 - np.arange(start, start + len(hid))
        hosp[used] = _codes([h for h, u in zip(hid, used.tolist()) if u], ids)
        bad = used & (~np.isfinite(coefs).all(axis=1) | (not keyed))
        return (hosp,), (coefs,), bad

    def check(line, cells, repeated):
        hid, *cells = cells
        try:
            if not keyed:
                raise KeyError("hospital_id")
            coefs = [float(c) for c in cells]
        except (KeyError, TypeError, ValueError):
            raise ParseError(f"{path}:{line}: bad parameter row",
                             line=line) from None
        if not np.isfinite(coefs).all():
            raise ParseError(f"{path}:{line}: non-finite coefficient",
                             line=line)
        if repeated:
            raise ParseError(
                f"{path}:{line}: duplicate parameters for {hid!r}", line=line)

    with _CsvColumns(path, ["hospital_id", "b1", "b2", "b3"]) as table:
        keyed = table.header is not None and "hospital_id" in table.header
        _, (hosp,), (coefs,) = table.read(convert, check)
    return {hid: Beta(*c) for hid, c in zip(ids, coefs[hosp >= 0].tolist())}


def _load_future_z(path, incidence_column):
    """Incidence per hospital id and day from a ``--future-z`` file."""
    names = ["hospital_id", "day", incidence_column]
    ids = {}  # hospital id -> index, in order of first appearance

    def convert(start, columns):
        hid, day, cells = columns
        day, bad = _parse_cells(int, day, 0)
        z = _parse_cells(float, cells, np.nan)[0]
        bad |= ~_is_count(z) | (not keyed)
        return (_codes(hid, ids), day), (z,), bad

    def check(line, cells, repeated):
        hid, day, cell = cells
        try:
            if not keyed:
                raise KeyError(names)
            day = int(day)
        except (KeyError, TypeError, ValueError):
            raise ParseError(f"{path}:{line}: bad future-z row",
                             line=line) from None
        _parse_count(cell, "incidence", path, line)
        if repeated:
            raise ParseError(f"{path}:{line}: duplicate day {day} for {hid!r}",
                             line=line)

    with _CsvColumns(path, names) as table:
        keyed = table.header is not None and set(names) <= set(table.header)
        _, (hosp, day), (z,) = table.read(convert, check)
    hids = list(ids)
    out = {}
    for h, d, value in zip(hosp.tolist(), day.tolist(), z.tolist()):
        out.setdefault(hids[h], {})[d] = value
    return out


def cmd_predict(args):
    cohort, _ = _load(args)
    outdir = args["output_dir"]
    betas = _load_params(args["params"])
    horizon = args["horizon"]
    if horizon < 0:
        raise UsageError("horizon must be >= 0")
    future_z = {}
    if horizon > 0:
        if not args.get("future_z"):
            raise UsageError("--future-z is required when horizon > 0")
        future_z = _load_future_z(args["future_z"], args["incidence_column"])
    kept = []
    for s in cohort:
        if s.id not in betas:
            log.warning("no parameters for %s, skipped", s.id)
            continue
        y, z = s.y, s.z
        if horizon > 0:
            # Forecast days are unreported days past T.  The incidence of day
            # T + horizon feeds no prediction, so it is padded with 0.
            zmap = future_z.get(s.id, {})
            future = range(s.T + 1, s.T + horizon)
            missing = [d for d in future if d not in zmap]
            if missing:
                raise UsageError(f"future z missing for {s.id} day {missing[0]}")
            y = np.concatenate([y, np.full(horizon, np.nan)])
            z = np.concatenate([z, [zmap[d] for d in future], [0.0]])
        kept.append((s, y, z))
    rows = []
    if kept:
        # One bridge over the cohort, right-padded with unreported days; the
        # recursion is causal, so padding leaves each row's own days as they are.
        days = max(len(y) for _, y, _ in kept)
        Y = np.full((len(kept), days), np.nan)
        Z = np.zeros((len(kept), days))
        for i, (_, y, z) in enumerate(kept):
            Y[i, :len(y)] = y
            Z[i, :len(z)] = z
        R = np.isfinite(Y)
        y_tilde, dy_hat = predict_trajectory(
            Y, R, Z * args["incidence_scale"],
            np.array([betas[s.id].as_array() for s, _, _ in kept]))
        for i, (s, y, _) in enumerate(kept):
            first = int(np.argmax(R[i]))
            cells = zip(y.tolist(), R[i].tolist(), y_tilde[i].tolist(),
                        dy_hat[i].tolist())
            for t, (obs, rep, state, inc) in enumerate(cells):
                if t >= s.T:
                    kind = "forecast"
                elif t < first:
                    kind = "pre-report"
                else:
                    kind = "observed" if rep else "bridged"
                rows.append([s.id, t + 1, _fmt(obs) if rep else "",
                             _fmt(state) if t >= first else "",
                             _fmt(inc) if t > first else "", kind])
    _write_csv(_artifact(outdir, "trajectory.csv"),
               ["hospital_id", "day", "observed", "y_tilde", "dy_hat", "kind"],
               rows)
    _write_manifest(outdir, "predict", args, ["trajectory.csv"])
    return 0


_HANDLERS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "benchmark": cmd_benchmark,
    "sensitivity": cmd_sensitivity,
    "censor": cmd_censor,
    "gradcheck": cmd_gradcheck,
    "predict": cmd_predict,
}


def cmd_rerun(args):
    with open(args["manifest"], encoding="utf-8") as fh:
        manifest = json.load(fh)
    command = manifest.get("command")
    if command not in _HANDLERS:
        raise UsageError(f"manifest has unknown command {command!r}")
    run_args = dict(manifest["args"])
    if args.get("output_dir"):
        run_args["output_dir"] = args["output_dir"]
    return _dispatch(_HANDLERS[command], run_args)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gapfit",
        description="Gap-bridging increment regression toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic cohort")
    _add_io_flags(p, needs_input=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hospitals", type=int, default=100)
    p.add_argument("--days", type=int, default=70)
    p.add_argument("--noise", type=float, default=0.25)
    p.add_argument("--mcar-rate", type=float, default=0.04)
    p.add_argument("--gap-start-prob", type=float, default=0.004)
    p.add_argument("--mean-gap-length", type=float, default=6.0)
    p.add_argument("--incidence-scale", type=float, default=0.01)
    p.add_argument("--complete", action="store_true",
                   help="no missingness (fully reported cohort)")

    p = sub.add_parser("fit", help="fit the increment model per hospital")
    _add_io_flags(p)
    _add_fit_flags(p)
    p.add_argument("--share", default="none",
                   help="globally shared dimensions, e.g. b1,b3 or none")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("benchmark",
                       help="last-day errors for all five models")
    _add_io_flags(p)
    _add_fit_flags(p)
    p.add_argument("--share", default="none")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("sensitivity",
                       help="sliding-window improvement quantiles")
    _add_io_flags(p)
    _add_fit_flags(p)
    p.add_argument("--window-len", type=int, default=35)
    p.add_argument("--baseline", default="mean",
                   choices=[k.value for k in BenchmarkKind])
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("censor", help="censor-and-recover validation")
    _add_io_flags(p)
    _add_fit_flags(p)
    p.add_argument("--rates", default="0.10,0.25,0.50,0.75")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gradcheck",
                       help="autodiff vs finite differences on random losses")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-dir", default=None)

    p = sub.add_parser("predict",
                       help="bridged trajectories and forecasts")
    _add_io_flags(p)
    p.add_argument("--params", required=True, help="params.csv from `fit`")
    p.add_argument("--horizon", type=int, default=0)
    p.add_argument("--future-z", default=None,
                   help="CSV with future incidence (hospital_id, day, incidence)")
    p.add_argument("--incidence-scale", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("rerun", help="re-execute a command from its manifest")
    p.add_argument("manifest")
    p.add_argument("--output-dir", default=None)
    return parser


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    ns = parser.parse_args(argv)
    args = vars(ns)
    command = args.pop("command")
    handler = cmd_rerun if command == "rerun" else _HANDLERS[command]
    try:
        return _dispatch(handler, args)
    except (UsageError, InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GapfitError, FloatingPointError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
