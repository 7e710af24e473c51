#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py [--workloads pipeline,recover,censor]
        [--seeds 1-10] [--seconds S] [--trace 0|1]
        [--write perfbench/baseline.json]

Run it from the repository root.  Each run is a separate process of
``perfbench/run.py``, one after another.  For every workload and metric it
prints the median over seeds, the quartiles as ``statistics.quantiles(values,
n=4)`` gives them, and the spread (q3 - q1) / median next to the metric's
bound from BENCHMARK.json.  This one command prints every end-to-end metric
of every workload.  ``--write`` stores the runs and their summary as a
baseline, under the key ``trace0`` or ``trace1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import quartiles

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    machine_line = next((ln for ln in lines if ln.startswith("machine: ")),
                        None)
    result = json.loads(lines[-1])
    if machine_line:
        result["machine"] = json.loads(machine_line[len("machine: "):])
    return result


def spread(values):
    med, q1, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=None,
                   help="comma-separated; default: all in BENCHMARK.json")
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3")
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write", default=None, help="baseline JSON to write")
    args = p.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    out = {"seconds": seconds, "trace": args.trace, "seeds": seeds,
           "workloads": {}}
    for name in names:
        runs = [run_one(name, s, seconds, args.trace) for s in seeds]
        metrics = {k: [r["metrics"][k]["value"] for r in runs]
                   for k in runs[0]["metrics"]}
        units = {k: runs[0]["metrics"][k]["unit"] for k in metrics}
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"\n{name}: {len(runs)} runs, {failed} of {attempted} "
              f"operations failed")
        print(f"{'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}  unit")
        summary = {}
        for k, vals in metrics.items():
            s = spread(vals)
            s["unit"] = units[k]
            summary[k] = s
            b = bounds.get(k)
            print(f"{k:44s} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['spread']:7.3f} "
                  f"{'' if b is None else format(b, '.2f'):>6s}  {units[k]}")
        if "converged_frac" in metrics:
            fallback = [1.0 - v for v in metrics["converged_frac"]]
            print(f"{'fallback_frac':44s} {statistics.median(fallback):12.6g}"
                  f"  ratio (1 - converged_frac)")
        print(f"{'failed_frac':44s} {failed / attempted:12.6g}"
              f"  ratio ({failed} of {attempted} operations)")
        out["workloads"][name] = {
            "summary": summary,
            "runs": [{"seed": s, "correct": r["correct"],
                      "attempted": r["attempted"], "failed": r["failed"],
                      "metrics": {k: v["value"]
                                  for k, v in r["metrics"].items()}}
                     for s, r in zip(seeds, runs)],
            "machine": runs[-1].get("machine"),
        }
    if args.write:
        # untraced and traced sweeps share one file, one key each
        baseline = {}
        if os.path.exists(args.write):
            with open(args.write, encoding="utf-8") as fh:
                baseline = json.load(fh)
        baseline[f"trace{args.trace}"] = out
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
