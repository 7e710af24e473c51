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
import json
import logging
import os
import sys

import numpy as np

from . import __version__, autodiff
from .benchmarks import BenchmarkKind
from .datagen import (MissingnessSpec, SimSpec, _cells, _codes,
                      _CsvColumns, _parse_cells, _series_blocks, _text_cells,
                      _write_columns, load_cohort, save_cohort,
                      simulate_cohort)
from .errors import (EvaluationError, GapfitError, InsufficientDataError,
                     ParseError, UsageError)
from .evaluation import (BenchmarkPredictor, IncrementPredictor,
                         censor_sweep, last_point_error, sensitivity_run)
from .model import Beta, Cohort, loss as model_loss, predict_trajectory
from .optimizer import FitConfig
from .sharing import ALL_SHARING_SPECS, SharingSpec, fit_shared

log = logging.getLogger("gapfit")


def _setup_logging():
    level = os.environ.get("GAPFIT_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _artifact(outdir, name):
    """Path of one output file.  The directory is made at the first write, so
    a command rejected before it leaves no directory behind."""
    os.makedirs(outdir, exist_ok=True)
    return os.path.join(outdir, name)


def _stat_cells(values):
    """Cells of floats, empty for None (a statistic of no values)."""
    return _cells(np.array(values, float), [v is not None for v in values])


def _flag_cells(flags):
    return ["true" if flag else "false" for flag in flags]


def _write_traces(path, ids, trace):
    """``traces.csv``: a row ``id, step, loss`` per loss that each hospital
    recorded in its column of :attr:`~gapfit.sharing.CohortFit.trace`, or
    one NaN row if it recorded none."""
    recorded = np.count_nonzero(~np.isnan(trace), axis=0)
    _write_columns(path, ["hospital_id", "step", "loss"], _series_blocks(
        ids, np.maximum(recorded, 1), [trace.T], start=0))


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
    """Run ``handler`` after checking that every float argument is finite
    and that the seed is what numpy's generator takes: an integer >= 0
    (None would seed it from the operating system)."""
    for key, value in args.items():
        if isinstance(value, float):
            _require_finite(key, value)
    seed = args.get("seed", 0)
    if type(seed) is not int or seed < 0:
        raise UsageError(f"seed must be a non-negative integer, got {seed!r}")
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
    _scaled(cohort.ids, cohort.z, args.get("incidence_scale", 1.0))
    # Python's order of the ids themselves: a numpy string array would drop
    # trailing NUL characters
    return cohort.take(sorted(range(len(cohort)),
                              key=cohort.ids.__getitem__))


def _scaled(ids, z, scale):
    """``z * scale``; an overflow is a usage error that names the first
    hospital with one, in Python's order of the ids."""
    with np.errstate(over="ignore"):
        z = z * scale
    bad = [ids[k] for k in np.flatnonzero(~np.isfinite(z).all(axis=1))]
    if bad:
        raise UsageError(f"scaled incidence must be finite: {min(bad)!r}")
    return z


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
    cohort = _load(args)
    outdir = args["output_dir"]
    config = _fit_config(args)
    spec = SharingSpec.parse(args["share"])
    # every loaded row has 2 reports, so every row enters the fit
    fit = fit_shared(cohort, spec, config)
    # a diverged fit's non-finite coefficients are left blank, so
    # ``predict`` skips that hospital as one without parameters
    finite = np.isfinite(fit.beta).all(axis=1)
    # each row's last recorded loss; NaN from a row that recorded none
    recorded = np.count_nonzero(~np.isnan(fit.trace), axis=0)
    final = fit.trace[recorded - 1, np.arange(len(cohort))]
    _write_columns(
        _artifact(outdir, "params.csv"),
        ["hospital_id", "b1", "b2", "b3", "converged", "fell_back",
         "steps_used", "final_loss"],
        [[_text_cells(cohort.ids), *(_cells(c, finite) for c in fit.beta.T),
          _flag_cells(fit.converged), _flag_cells(~fit.converged),
          _cells(fit.steps_used), _cells(final)]])
    _write_traces(_artifact(outdir, "traces.csv"), cohort.ids, fit.trace)
    _write_manifest(outdir, "fit", args, ["params.csv", "traces.csv"])
    return 0


def cmd_benchmark(args):
    cohort = _load(args)
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
    stats = ["sum", "mean", "q1", "median", "q3"]
    _write_columns(
        _artifact(outdir, "table1.csv"),
        ["model", *stats, "fallback_count", "n_scored"],
        [[_text_cells(r.model for r in reports),
          *(_stat_cells([s[stat] for s in summaries]) for stat in stats),
          _cells([r.fallback_count for r in reports]),
          _cells([len(r.errors) for r in reports])]])
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
    cohort = _load(args)
    outdir = args["output_dir"]
    config = _fit_config(args)
    report = sensitivity_run(cohort, ALL_SHARING_SPECS, config,
                             baseline=BenchmarkKind(args["baseline"]),
                             window_length=args["window_len"])
    labels = [row.label for row in report.rows]
    _write_columns(
        _artifact(outdir, "table2.csv"), ["combination", "q1", "median", "q3"],
        [[_text_cells(labels),
          *(_cells([getattr(row, stat) for row in report.rows])
            for stat in ("q1", "median", "q3"))]])
    _write_columns(
        _artifact(outdir, "windows.csv"),
        ["window_start", "window_end", *labels],
        [[_cells([w.start for w in report.windows]),
          _cells([w.end for w in report.windows]),
          *(_cells(np.array(row.diffs, float)) for row in report.rows)]])
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
    cohort = _load(args)
    outdir = args["output_dir"]
    config = _fit_config(args)
    rates = _parse_floats(args["rates"])
    if not rates:
        raise UsageError("at least one censor rate is required")
    repeated = [rate for k, rate in enumerate(rates) if rate in rates[:k]]
    if repeated:
        raise UsageError(f"censor rate {repeated[0]} is given more than once")
    reports = censor_sweep(cohort, rates, args["reps"], args["seed"], config)
    payload = {str(rep.rate): {m: rep.summary[m] for m in rep.summary}
               for rep in reports}
    stats = ["mean", "q1", "median", "q3"]
    rows = [(rep.rate, m, rep.summary[m]) for rep in reports
            for m in rep.summary]
    _write_columns(
        _artifact(outdir, "recovery.csv"), ["rate", "model", *stats],
        [[_cells([rate for rate, _, _ in rows]),
          _text_cells(m for _, m, _ in rows),
          *(_stat_cells([s[stat] for _, _, s in rows]) for stat in stats)]])
    _write_json(_artifact(outdir, "report.json"), payload)
    _write_manifest(outdir, "censor", args, ["recovery.csv", "report.json"])
    return 0


def cmd_gradcheck(args):
    if args["trials"] < 1:
        raise UsageError("trials must be >= 1")
    rng = np.random.Generator(np.random.PCG64(args["seed"]))
    trials = []
    for _ in range(args["trials"]):
        T = int(rng.integers(8, 40))
        y = rng.uniform(0.0, 25.0, T)
        gaps = rng.random(T) < 0.25
        gaps[0] = False
        y[gaps] = np.nan
        if np.isfinite(y).sum() < 2:
            continue
        trials.append((y, rng.uniform(0.0, 5.0, T), rng.uniform(-0.4, 0.4, 3)))
    worst, failures = 0.0, 0
    if trials:
        # the kept trials are the rows of one right-padded cohort, each row
        # its own problem with its own discrepancy
        days = [len(y) for y, _, _ in trials]
        y, z = np.zeros((2, len(trials), max(days)))
        for k, (y_k, z_k, _) in enumerate(trials):
            y[k, :days[k]], z[k, :days[k]] = y_k, z_k
        cohort = Cohort(range(len(trials)), y, z, days)
        disc = autodiff.check_gradient(lambda b: model_loss(cohort, b),
                                       np.array([b for *_, b in trials]).T,
                                       h=1e-6)
        worst = float(disc.max())
        # a NaN discrepancy, from a row that turned non-finite, fails too
        failures = int(np.count_nonzero(~(disc < 1e-6)))
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
    empty ``b1`` (a hospital without a usable fit) is skipped.  A header
    without the id and all three coefficients raises :class:`ParseError`."""
    ids = {}  # hospital id -> index, in order of first appearance

    def convert(start, columns):
        hid, *cells = columns
        used = np.fromiter(map(bool, cells[0]), bool, len(hid))
        coefs, bad = zip(*(_parse_cells(float, c, np.nan) for c in cells))
        coefs = np.column_stack(coefs)
        # a skipped row keys on its own position (< 0), so it repeats no row
        hosp = -1 - np.arange(start, start + len(hid))
        hosp[used] = _codes([h for h, u in zip(hid, used.tolist()) if u], ids)
        # a row too short to reach its hospital_id has the id None
        unnamed = np.equal(np.array(hid, object), None)
        return (hosp,), (coefs,), [
            used & (unnamed | np.any(bad, axis=0)),
            used & ~np.isfinite(coefs).all(axis=1)]

    messages = ["bad parameter row", "non-finite coefficient",
                "duplicate parameters for {cells[0]!r}"]
    names = ["hospital_id", "b1", "b2", "b3"]
    with _CsvColumns(path, names) as table:
        _, (hosp,), (coefs,) = table.read(convert, messages)
    return {hid: Beta(*c) for hid, c in zip(ids, coefs[hosp >= 0].tolist())}


def _load_future_z(path, incidence_column):
    """Incidence per (hospital id, day) from a ``--future-z`` file.  A
    header without the id, day and incidence columns raises
    :class:`ParseError`."""
    names = ["hospital_id", "day", incidence_column]
    ids = {}  # hospital id -> index, in order of first appearance

    def convert(start, columns):
        hid, day, cells = columns
        day, bad_day = _parse_cells(int, day, 0)
        z, bad_z = _parse_cells(float, cells, np.nan)
        unnamed = np.equal(np.array(hid, object), None)
        return (_codes(hid, ids), day), (z,), [
            unnamed | bad_day, bad_z, ~np.isfinite(z), z < 0]

    messages = ["bad future-z row", "bad incidence {cells[2]!r}",
                "non-finite incidence {cells[2]!r}", "negative incidence",
                "duplicate day {keys[1]} for {cells[0]!r}"]
    with _CsvColumns(path, names) as table:
        _, (hosp, day), (z,) = table.read(convert, messages)
    hids = list(ids)
    return {(hids[h], d): value
            for h, d, value in zip(hosp.tolist(), day.tolist(), z.tolist())}


def cmd_predict(args):
    horizon = args["horizon"]
    if horizon < 0:
        raise UsageError("horizon must be >= 0")
    if horizon > 0 and not args.get("future_z"):
        raise UsageError("--future-z is required when horizon > 0")
    if args["incidence_scale"] <= 0:
        raise UsageError("incidence_scale must be positive")
    cohort = _load(args)
    outdir = args["output_dir"]
    betas = _load_params(args["params"])
    future_z = (_load_future_z(args["future_z"], args["incidence_column"])
                if horizon > 0 else {})  # (hospital id, day) -> incidence
    kept = []
    for k, (hid, n) in enumerate(zip(cohort.ids, cohort.days.tolist())):
        if hid not in betas:
            log.warning("no parameters for %s, skipped", hid)
            continue
        missing = next((d for d in range(n + 1, n + horizon)
                        if (hid, d) not in future_z), None)
        if missing is not None:
            raise UsageError(f"future z missing for {hid} day {missing}")
        kept.append(k)
    # Forecast days are unreported days past each row's own last day.  The
    # incidence of day ``days + horizon`` feeds no prediction and stays 0.
    y = np.pad(cohort.y[kept], ((0, 0), (0, horizon)), constant_values=np.nan)
    z = np.pad(cohort.z[kept], ((0, 0), (0, horizon)))
    ids, days = [cohort.ids[k] for k in kept], cohort.days[kept]
    for row, (hid, n) in enumerate(zip(ids, days.tolist())):
        z[row, n:n + horizon - 1] = [future_z[hid, d]
                                     for d in range(n + 1, n + horizon)]
    # the recursion is causal, so the padding leaves each row's days as they are
    r = np.isfinite(y)
    coefs = np.array([betas[hid].as_array() for hid in ids])
    y_tilde, dy_hat = predict_trajectory(
        y, r, _scaled(ids, z, args["incidence_scale"]), coefs.reshape(-1, 3))
    # each row's days, then its forecast days; a state exists from the
    # first report on, an increment after it
    t = np.arange(y.shape[1])
    since = t - np.argmax(r, axis=1)[:, None]  # days since the first report
    kind = np.select([t >= days[:, None], since < 0, r],
                     ["forecast", "pre-report", "observed"], "bridged")
    _write_columns(
        _artifact(outdir, "trajectory.csv"),
        ["hospital_id", "day", "observed", "y_tilde", "dy_hat", "kind"],
        _series_blocks(ids, days + horizon,
                       [(y, r), (y_tilde, since >= 0), (dy_hat, since > 0),
                        kind]))
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


class _ManifestArgs(dict):
    """A manifest's arguments; a key the command needs but the manifest
    lacks is a usage error naming it."""

    def __init__(self, path, args):
        super().__init__(args)
        self.path = path

    def __missing__(self, key):
        raise UsageError(f"{self.path}: manifest args lack {key!r}")


def cmd_rerun(args):
    path = args["manifest"]
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ParseError(f"{path}: unreadable manifest ({exc})") from None
    if not isinstance(manifest, dict):
        raise ParseError(f"{path}: manifest must be a JSON object")
    command = manifest.get("command")
    if command not in _HANDLERS:
        raise UsageError(f"manifest has unknown command {command!r}")
    if not isinstance(manifest.get("args"), dict):
        raise ParseError(f'{path}: manifest has no "args" object')
    run_args = _ManifestArgs(path, manifest["args"])
    if args.get("output_dir"):
        run_args["output_dir"] = args["output_dir"]
    _check_manifest_args(path, command, run_args)
    return _dispatch(_HANDLERS[command], run_args)


def _check_manifest_args(path, command, args):
    """Hold each of a manifest's args to the option of ``command``'s own
    parser that writes it: an int for an int option (a bool is none), a
    number for a float option, a bool for a flag, text for any other option
    (or null where it is optional with no default), and one of its choices.
    The seed is left to :func:`_dispatch`, which checks it for every run."""
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    for action in sub.choices[command]._actions:
        if action.dest not in args or action.dest == "seed":
            continue
        value = args[action.dest]
        if action.nargs == 0:
            ok = isinstance(value, bool)
        else:
            kinds = {int: int, float: (int, float)}.get(action.type, str)
            ok = (isinstance(value, kinds) and not isinstance(value, bool)
                  or value is None and action.default is None
                  and not action.required)
        if ok and action.choices is not None:
            ok = value in action.choices
        if not ok:
            raise UsageError(f"{path}: manifest arg {action.dest!r} has "
                             f"the invalid value {value!r}")


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
    except MemoryError as exc:
        print(f"error: {command}: out of memory ({exc})", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
