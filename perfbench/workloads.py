"""The three workloads: their inputs, one timed pass, and its checks.

A workload's inputs come from the seed alone.  ``run`` is the timed part of a
pass and does only the program's work; ``check`` runs untimed afterwards and
returns named correctness checks and the pass's output digest.  Every pass of
a run uses the same inputs, so every pass must give the same digest.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import traceback

import numpy as np

from tracing import CENSOR_RATES


def _sha(h, arr):
    h.update(np.ascontiguousarray(arr, dtype=float).tobytes())


def _fit_config(g, steps, **kw):
    return g.optimizer.FitConfig(steps=steps, auto_eta=True, warm_start=True,
                                 **kw)


def _working_set(K, T, steps):
    """Bytes of one fit's arrays: y, z (float64) and r (bool), plus the trace."""
    inputs = K * T * (8 + 8 + 1)
    trace = (steps + 1) * K * 8
    return {"K": K, "T": T, "steps": steps, "input_bytes": inputs,
            "trace_bytes": trace, "bytes": inputs + trace}


class Workload:
    """Defaults for workloads that write no files.

    Sizes: ``full`` is measured, ``quick`` is the toy size with every check
    still passing, ``warm`` is the tiny run that warms code paths in set-up.
    """

    def prepare(self, workdir):
        pass

    def files_written(self, workdir):
        return 0, 0


# ---------------------------------------------------------------------------
# recover: criterion 5's design


class Recover(Workload):
    """Noiseless cohorts at 0 % and 25 % i.i.d. missingness, ``fit_cohort``
    with ``auto_eta`` and ``warm_start``; one small-K call per arm."""

    name = "recover"
    full = {"K": 100, "T": 70, "arms": ((0.0, 500), (0.25, 500))}
    quick = {"K": 12, "T": 30, "arms": ((0.0, 40), (0.25, 40))}
    warm = {"K": 4, "T": 20, "arms": ((0.0, 5), (0.25, 5))}

    def make_inputs(self, g, seed, size, workdir):
        arms = []
        for rate, steps in size["arms"]:
            spec = g.datagen.SimSpec(
                n_hospitals=size["K"], n_days=size["T"], b1_range=(0.05, 0.5),
                noise_scale=0.0,
                missingness=g.datagen.MissingnessSpec(mcar_rate=rate,
                                                      gap_start_prob=0.0),
                seed=seed)
            cohort, truth = g.datagen.simulate_cohort(spec)
            arms.append((rate, cohort, truth, _fit_config(g, steps)))
        return arms

    def run(self, g, inputs, workdir):
        return [g.optimizer.fit_cohort(cohort, config)
                for _, cohort, _, config in inputs]

    def check(self, g, inputs, workdir, out):
        checks = []
        h = hashlib.sha256()
        for (rate, cohort, truth, config), results in zip(inputs, out):
            tag = f"r{int(rate * 100):03d}"
            final = np.array([r.loss_trace[-1] for r in results])
            if rate == 0.0:
                # criterion 5: >= 99 % within 1e-3 of the true beta, loss < 1e-8
                err = np.array([np.abs(r.beta.as_array() - b.as_array()).max()
                                for r, b in zip(results, truth.betas)])
                checks.append((f"{tag}.accuracy",
                               (err <= 1e-3).mean() >= 0.99
                               and final.max() < 1e-8))
            # the batch kernel's final loss is the scalar model's loss at the
            # returned beta (criterion 5's accuracy at 25 % needs ~16,000
            # steps, far beyond one pass, so it is not asked of that arm)
            scalar = np.array([
                g.model.loss(s.with_scaled_z(config.incidence_scale), r.beta)
                for s, r in zip(cohort, results)])
            checks.append((f"{tag}.final_loss_matches_model",
                           bool(np.allclose(final, scalar, rtol=1e-9,
                                            atol=1e-15, equal_nan=True))))
            for r in results:
                _sha(h, r.beta.as_array())
                _sha(h, r.loss_trace)
        return checks, h.hexdigest()

    def working_set(self, size):
        K, T = size["K"], size["T"]
        return max((_working_set(K, T, s) for _, s in size["arms"]),
                   key=lambda w: w["bytes"])


# ---------------------------------------------------------------------------
# censor: criterion 9's design


class Censor(Workload):
    """A complete noisy cohort censored at four rates by ``censor_sweep``;
    one ``fit_shared`` per rate and repetition."""

    name = "censor"
    full = {"K": 463, "T": 70, "reps": 1, "steps": 150}
    quick = {"K": 60, "T": 70, "reps": 1, "steps": 60}
    warm = {"K": 4, "T": 20, "reps": 1, "steps": 5}

    def make_inputs(self, g, seed, size, workdir):
        spec = g.datagen.SimSpec(
            n_hospitals=size["K"], n_days=size["T"], noise_scale=0.4,
            missingness=g.datagen.MissingnessSpec(mcar_rate=0.0,
                                                  gap_start_prob=0.0),
            seed=seed)
        cohort, _ = g.datagen.simulate_cohort(spec)
        config = _fit_config(g, size["steps"], eta_safety=0.05)
        return cohort, seed, size["reps"], config

    def run(self, g, inputs, workdir):
        cohort, seed, reps, config = inputs
        return g.evaluation.censor_sweep(cohort, list(CENSOR_RATES), reps, seed,
                                         config)

    def check(self, g, inputs, workdir, reports):
        medians = {m: [rep.summary[m]["median"] for rep in reports]
                   for m in reports[0].summary}
        checks = [(f"monotone.{m}", all(a <= b for a, b in zip(seq, seq[1:])))
                  for m, seq in medians.items()]
        for i, tag in ((2, "r050"), (3, "r075")):
            checks.append((f"increment_beats_linreg.{tag}",
                           medians["increment"][i] < medians["linreg_locf"][i]))
        h = hashlib.sha256()
        for rep in reports:
            for m in sorted(rep.per_hospital):
                _sha(h, rep.per_hospital[m])
        return checks, h.hexdigest()

    def working_set(self, size):
        return _working_set(size["K"], size["T"], size["steps"])


# ---------------------------------------------------------------------------
# pipeline: the CLI end to end


class Pipeline(Workload):
    """``simulate`` -> ``fit`` -> ``benchmark`` -> ``sensitivity`` ->
    ``predict`` -> ``gradcheck`` -> ``rerun`` (fit, benchmark) through
    ``gapfit.cli.main`` on one cohort, artifacts written to disk."""

    name = "pipeline"
    full = {"K": 500, "T": 70, "fit_steps": 100, "bench_steps": 100,
            "sens_steps": 10, "window": 69, "horizon": 7, "trials": 1000}
    quick = {"K": 12, "T": 30, "fit_steps": 20, "bench_steps": 20,
             "sens_steps": 5, "window": 27, "horizon": 3, "trials": 20}
    warm = {"K": 4, "T": 20, "fit_steps": 5, "bench_steps": 5,
            "sens_steps": 2, "window": 18, "horizon": 2, "trials": 5}

    def make_inputs(self, g, seed, size, workdir):
        """The command lines, plus the future incidence file for ``predict``."""
        os.makedirs(workdir, exist_ok=True)
        K, T, H = size["K"], size["T"], size["horizon"]
        rng = np.random.Generator(np.random.PCG64(seed))
        future = os.path.join(workdir, "future_z.csv")
        width = len(str(K - 1))
        with open(future, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["hospital_id", "day", "incidence"])
            for k in range(K):
                for day in range(T + 1, T + H + 1):
                    w.writerow([f"h{k:0{width}d}", day,
                                repr(float(rng.uniform(50.0, 500.0)))])
        d = os.path.join(workdir, "pass")
        cohort = os.path.join(d, "sim", "cohort.csv")
        # at the default eta safety 0.2 the shared fits diverge for some seeds
        # and stop early, which makes a pass's work depend on the seed
        fit_flags = ["--auto-eta", "--warm-start", "--eta-safety", "0.05"]
        return [
            ("simulate", ["simulate", "--output-dir", os.path.join(d, "sim"),
                          "--seed", str(seed), "--hospitals", str(K),
                          "--days", str(T)]),
            ("fit", ["fit", "--input", cohort, "--output-dir",
                     os.path.join(d, "fit"), "--share", "b3", *fit_flags,
                     "--steps", str(size["fit_steps"])]),
            ("benchmark", ["benchmark", "--input", cohort, "--output-dir",
                           os.path.join(d, "bench"), *fit_flags,
                           "--steps", str(size["bench_steps"])]),
            ("sensitivity", ["sensitivity", "--input", cohort, "--output-dir",
                             os.path.join(d, "sens"), *fit_flags,
                             "--steps", str(size["sens_steps"]),
                             "--window-len", str(size["window"])]),
            ("predict", ["predict", "--input", cohort, "--output-dir",
                         os.path.join(d, "pred"), "--params",
                         os.path.join(d, "fit", "params.csv"),
                         "--horizon", str(H), "--future-z", future]),
            ("gradcheck", ["gradcheck", "--trials", str(size["trials"]),
                           "--seed", str(seed), "--output-dir",
                           os.path.join(d, "grad")]),
            ("rerun_fit", ["rerun", os.path.join(d, "fit", "manifest.json"),
                           "--output-dir", os.path.join(d, "fit_redo")]),
            ("rerun_benchmark", ["rerun",
                                 os.path.join(d, "bench", "manifest.json"),
                                 "--output-dir",
                                 os.path.join(d, "bench_redo")]),
        ]

    def prepare(self, workdir):
        shutil.rmtree(os.path.join(workdir, "pass"), ignore_errors=True)

    def run(self, g, commands, workdir):
        codes = []
        sink = io.StringIO()
        for _, argv in commands:
            try:
                with contextlib.redirect_stdout(sink):
                    codes.append(g.cli.main(argv))
            except SystemExit as exc:  # argparse rejected the command line
                codes.append(exc.code)
            except Exception:  # the CLI lets an exception escape: a failure
                traceback.print_exc()
                codes.append(None)
        return codes

    def check(self, g, commands, workdir, codes):
        d = os.path.join(workdir, "pass")
        checks = [(f"exit0.{name}", code == 0)
                  for (name, _), code in zip(commands, codes)]

        def same(a, b, files):
            try:
                return all(_read(os.path.join(d, a, f))
                           == _read(os.path.join(d, b, f)) for f in files)
            except OSError:
                return False

        checks.append(("rerun_identical.fit",
                       same("fit", "fit_redo", ("params.csv", "traces.csv"))))
        checks.append(("rerun_identical.benchmark",
                       same("bench", "bench_redo",
                            ("table1.csv", "report.json"))))
        try:
            grad = json.loads(_read(os.path.join(d, "grad", "gradcheck.json")))
            ok = grad["failures"] == 0
        except (OSError, ValueError, KeyError):
            ok = False
        checks.append(("gradcheck_no_failures", ok))
        h = hashlib.sha256()
        for path in _files(d):
            h.update(os.path.relpath(path, d).encode())
            h.update(_read(path))
        return checks, h.hexdigest()

    def files_written(self, workdir):
        """(bytes, CSV data rows) of every artifact of the pass."""
        nbytes = rows = 0
        for path in _files(os.path.join(workdir, "pass")):
            data = _read(path)
            nbytes += len(data)
            if path.endswith(".csv"):
                rows += data.count(b"\n") - 1
        return nbytes, rows

    def working_set(self, size):
        return _working_set(size["K"], size["T"], size["fit_steps"])


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _files(root):
    out = []
    for dirpath, _, names in os.walk(root):
        out.extend(os.path.join(dirpath, n) for n in names)
    return sorted(out)


WORKLOADS = {w.name: w for w in (Pipeline(), Recover(), Censor())}
