#!/usr/bin/env python3
"""Run one gapfit benchmark workload and print its result.

    python3 perfbench/run.py --workload {pipeline,recover,censor} \\
        --seed N --seconds S --trace {0,1} [--quick]

Run it from the repository root: gapfit is imported from ./src, and scratch
files, the run record and the spans go to ./.bench_out.  It exits with code 2,
printing no result, when ./src/gapfit is missing.

One client drives a closed loop: each pass of the workload starts when the
previous one has ended, in one process with BLAS pinned to one thread.  Passes
repeat until ``--seconds`` are used.  Every pass of a run has the same inputs,
made from ``--seed``, and is checked; a failed check, an exception or a
non-zero CLI exit counts as a failed operation.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, with the tracing overhead as traced minus untraced median wall time.
``--quick`` runs the workload at toy size with every check enabled.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from types import SimpleNamespace

import machine

MODULES = ("autodiff", "benchmarks", "cli", "datagen", "evaluation", "model",
           "optimizer", "sharing")
SETUPS = 5
MAX_LOOP_S = 150.0


def import_gapfit():
    """A fresh import of every gapfit module."""
    for name in [m for m in sys.modules
                 if m == "gapfit" or m.startswith("gapfit.")]:
        del sys.modules[name]
    return SimpleNamespace(**{n: importlib.import_module(f"gapfit.{n}")
                              for n in MODULES})


def quartiles(values):
    """(median, q1, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def run_pass(wl, g, inputs, workdir, tracer, inst, traced):
    """One timed pass, then its untimed checks."""
    inst.install(spans=traced)
    tracer.reset()
    wl.prepare(workdir)
    out, checks, digest = None, [], None
    root = tracer.open("pass") if traced else None
    t0 = time.perf_counter()
    try:
        out = wl.run(g, inputs, workdir)
    except Exception:  # a failed operation, reported and counted
        traceback.print_exc()
        checks.append(("pass_completed", False))
    wall = time.perf_counter() - t0
    if traced:
        tracer.close(root)
    inst.uninstall()
    if out is not None:
        try:
            checks, digest = wl.check(g, inputs, workdir, out)
        except Exception:  # a check that cannot run has failed
            traceback.print_exc()
            checks.append(("check_completed", False))
    rec = {"traced": traced, "wall_s": wall, "fits": tracer.counts["fits"],
           "fallbacks": tracer.counts["fallbacks"], "checks": checks,
           "digest": digest}
    if traced:
        spans = tracer.freeze()
        # the root span brackets the timed region, so its self time and the
        # layers' add up to this wall time exactly
        rec["wall_s"] = float(spans.dur[0])
        rec["spans"] = spans
        rec["counts"] = tracer.counts.copy()
        rec["masks"] = tracer.masks
        rec["files_written"] = wl.files_written(workdir)
    return rec


def set_up(wl, seed, size, workdir, warmdir):
    """Import, make the inputs and warm up, SETUPS times; keep the last."""
    setups = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        g = import_gapfit()
        inputs = wl.make_inputs(g, seed, size, workdir)
        warm = wl.make_inputs(g, seed, wl.warm, warmdir)
        wl.prepare(warmdir)
        wl.run(g, warm, warmdir)
        setups.append(time.perf_counter() - t0)
    return g, inputs, setups


def timed_loop(wl, g, inputs, workdir, seconds, trace):
    """Passes until ``seconds`` are used; with ``trace`` every second one is
    traced."""
    import tracing

    tracer = tracing.Tracer()
    inst = tracing.Instrumentation(vars(g), tracer)
    min_passes = 4 if trace else 3
    passes, costs = [], []
    loop_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(wl, g, inputs, workdir, tracer, inst, traced))
        costs.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - loop_start
        if len(passes) >= min_passes and (
                elapsed + statistics.median(costs) > seconds
                or elapsed > MAX_LOOP_S):
            return passes


def end_to_end(passes, setups, fits_attempted, fallbacks, attempted, failed):
    walls = [p["wall_s"] for p in passes]
    rates = [p["fits"] / p["wall_s"] for p in passes]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "wall_s": ("s", walls),
        "setup_s": ("s", setups),
        "fits_per_s": ("1/s", rates),
        "peak_rss_mb": ("MB", [rss_mb]),
        "converged_frac": ("ratio", [1.0 - fallbacks / fits_attempted
                                     if fits_attempted else 0.0]),
        "ok_frac": ("ratio", [1.0 - failed / attempted]),
    }


def per_layer(traced, untraced):
    import tracing

    table = {}
    for p in traced:
        m = tracing.layer_metrics(p["spans"], p["counts"], p["masks"],
                                  p["files_written"])
        for k, v in m.items():
            table.setdefault(k, []).append(v)
    table["trace.untraced_wall_s"] = [p["wall_s"] for p in untraced]
    meds = {k: quartiles(v)[0] for k, v in table.items()}
    table["trace.overhead_s"] = [meds["trace.traced_wall_s"]
                                 - meds["trace.untraced_wall_s"]]
    return {k: (unit, table[k]) for k, (unit, _) in tracing.PER_LAYER.items()}


def write_spans(path, traced):
    import numpy as np

    vocab = sorted({n for p in traced for n in p["spans"].vocab})
    cols = {"pass": [], "name_id": [], "start": [], "end": [], "parent": []}
    for i, p in enumerate(traced):
        s = p["spans"]
        remap = np.array([vocab.index(n) for n in s.vocab], dtype=np.int32)
        cols["pass"].append(np.full(len(s), i, dtype=np.int32))
        cols["name_id"].append(remap[s.name_id])
        cols["start"].append(s.start)
        cols["end"].append(s.end)
        cols["parent"].append(s.parent)
    np.savez(path, names=np.array(vocab),
             **{k: np.concatenate(v) for k, v in cols.items()})


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("pipeline", "recover", "censor"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="toy sizes, every check enabled")
    args = p.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gapfit", "__init__.py")):
        print(f"error: no gapfit package under {src}; run from the "
              "repository root", file=sys.stderr)
        return 2
    machine.pin_blas_threads()
    sys.path.insert(0, src)
    # numpy, and the benchmark modules that import it, load only after the
    # pin; numpy once, outside the set-up timing
    import numpy  # noqa: F401
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    size = wl.quick if args.quick else wl.full
    outdir = os.path.join(root, ".bench_out", args.workload)
    workdir = os.path.join(outdir, "work")
    os.makedirs(outdir, exist_ok=True)
    calib = [machine.calibrate()]

    g, inputs, setups = set_up(wl, args.seed, size, workdir,
                               os.path.join(outdir, "warm"))
    if not g.cli.__file__.startswith(src):
        print(f"error: gapfit imported from {g.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    passes = timed_loop(wl, g, inputs, workdir, args.seconds,
                        bool(args.trace))
    calib.append(machine.calibrate())

    reference = passes[0]["digest"]
    for rec in passes:
        rec["checks"].append(("same_output_as_first_pass",
                              rec["digest"] is not None
                              and rec["digest"] == reference))
        if rec["traced"]:
            s = rec["spans"]
            rec["checks"].append((
                "self_times_sum_to_wall",
                abs(float(s.self_time.sum()) - rec["wall_s"]) <= 1e-9))
    attempted = sum(len(r["checks"]) for r in passes)
    failed = sum(not ok for r in passes for _, ok in r["checks"])
    untraced = [r for r in passes if not r["traced"]]
    traced = [r for r in passes if r["traced"]]
    fits = sum(r["fits"] for r in untraced or passes)
    fallbacks = sum(r["fallbacks"] for r in untraced or passes)

    if args.trace:
        metrics = per_layer(traced, untraced)
    else:
        metrics = end_to_end(passes, setups, fits, fallbacks, attempted,
                             failed)
    summary = {k: dict(zip(("median", "q1", "q3"), quartiles(v)),
                       unit=u, n=len(v)) for k, (u, v) in metrics.items()}

    print(f"gapfit benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} quick={args.quick} "
          f"passes={len(passes)}")
    print(f"{'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'n':>3s}  unit")
    for k, s in summary.items():
        print(f"{k:44s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
              f"{s['n']:3d}  {s['unit']}")
    print(f"{'fallback_frac':44s} {fallbacks / fits if fits else 0.0:12.6g}"
          f"  ratio ({fallbacks} of {fits} fits fell back)")
    print(f"{'failed_frac':44s} {failed / attempted:12.6g}"
          f"  ratio ({failed} of {attempted} operations failed)")
    for rec in passes:
        for name, ok in rec["checks"]:
            if not ok:
                print(f"FAILED check: {name}")

    record = {
        "args": vars(args),
        "machine": machine.record(),
        "threads": machine.threads(),
        "calibration_s": calib,
        "working_set": wl.working_set(size),
        "size": size,
        "setup_s": setups,
        "passes": [{k: v for k, v in r.items()
                    if k not in ("spans", "masks")} for r in passes],
        "fits": fits,
        "fallbacks": fallbacks,
        "attempted": attempted,
        "failed": failed,
        "metrics": summary,
    }
    name = f"seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}"
    with open(os.path.join(outdir, f"run-{name}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    if traced:
        write_spans(os.path.join(outdir, f"spans-{name}.npz"), traced)
    print("machine: " + json.dumps({k: record[k] for k in (
        "machine", "threads", "calibration_s", "working_set")}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": s["median"], "unit": s["unit"]}
                    for k, s in summary.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
