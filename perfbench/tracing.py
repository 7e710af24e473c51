"""Spans and counters recorded from outside the gapfit package.

Every public function the workloads reach is wrapped at the attribute its
caller looks up (``gapfit.cli.fit_shared``, ``gapfit.evaluation.
predict_trajectory``, ...), never only in the defining module, because
``from x import f`` copies the reference into the caller's namespace.  Nothing
under ``src/`` changes.

A span is (name, start, end, parent).  Spans are kept in memory while a pass
runs and written out when the benchmark ends.  A span's self time is its
duration minus the durations of its direct children, so the self times of all
spans of a pass, root included, add up to the pass's wall time.

Fit counters (fits attempted, fits that fell back) are hooks on the fit entry
points.  They stay installed in untraced passes too, since ``fits_per_s`` and
``converged_frac`` need them; they record no span and cost a loop over the
returned results once per fit call.
"""

from __future__ import annotations

import collections
import os
import time

import numpy as np

#: the commands the pipeline workload runs, rerun aside
CLI_COMMANDS = ("simulate", "fit", "benchmark", "sensitivity", "predict",
                "gradcheck")
CENSOR_RATES = (0.10, 0.25, 0.50, 0.75)


def rate_tag(rate):
    return f"r{int(round(rate * 100)):03d}"


class Tracer:
    """Spans and counts of one pass, held in memory."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = [-1]
        self.counts = collections.Counter()
        # (report mask (K, T), censor rate tag or None) per _run_batch call
        self.masks = []

    def open(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i):
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def enclosing(self, prefix):
        """Name of the innermost open span starting with ``prefix``."""
        for i in reversed(self._stack[1:]):
            if self.names[i].startswith(prefix):
                return self.names[i]
        return None

    def freeze(self):
        """The pass's spans as compact arrays."""
        return SpanTable(self.names, self.starts, self.ends, self.parents)


class SpanTable:
    """Columnar spans of one pass with their durations and self times."""

    def __init__(self, names, starts, ends, parents):
        self.vocab = sorted(set(names))
        index = {n: i for i, n in enumerate(self.vocab)}
        self.name_id = np.array([index[n] for n in names], dtype=np.int32)
        self.start = np.asarray(starts, dtype=float)
        self.end = np.asarray(ends, dtype=float)
        self.parent = np.asarray(parents, dtype=np.int64)
        self.dur = self.end - self.start
        child = np.zeros(len(self.dur))
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child

    def __len__(self):
        return len(self.dur)

    def mask(self, name):
        if name not in self.vocab:
            return np.zeros(len(self), dtype=bool)
        return self.name_id == self.vocab.index(name)

    def prefix_mask(self, prefix):
        ids = [i for i, n in enumerate(self.vocab) if n.startswith(prefix)]
        return np.isin(self.name_id, ids)

    def total(self, name):
        return float(self.dur[self.mask(name)].sum())

    def calls(self, name):
        return int(self.mask(name).sum())

    def self_of(self, prefix):
        return float(self.self_time[self.prefix_mask(prefix)].sum())

    def child_total(self, parent_name, child_names):
        """Summed duration of ``child_names`` spans directly under ``parent_name``."""
        under = np.zeros(len(self), dtype=bool)
        has_parent = self.parent >= 0
        pm = self.mask(parent_name)
        under[has_parent] = pm[self.parent[has_parent]]
        kids = np.zeros(len(self), dtype=bool)
        for n in child_names:
            kids |= self.mask(n)
        return float(self.dur[under & kids].sum())


# ---------------------------------------------------------------------------
# hooks: run after the wrapped call returns, outside its span


def _count_fit_results(results, tr):
    n = fell = steps = 0
    for res in results:
        if res is not None:
            n += 1
            fell += not res.converged
            steps += res.steps_used
    tr.counts["fits"] += n
    tr.counts["fallbacks"] += fell
    return steps


def _hook_fit_shared(tr, out, args, kwargs):
    tr.counts["sharing.hospital_steps"] += _count_fit_results(out.results, tr)
    tr.counts["sharing.rows"] += len(args[0])


def _hook_fit_cohort(tr, out, args, kwargs):
    _count_fit_results(out, tr)


def _hook_run_batch(tr, out, args, kwargs):
    steps_used = out[3]
    tr.counts["optimizer.hospital_steps"] += int(steps_used.sum())
    rate = tr.enclosing("evaluation.censor_and_recover.")
    tr.masks.append((args[1], rate.rsplit(".", 1)[1] if rate else None))


def _hook_load_cohort(tr, out, args, kwargs):
    cohort, _ = out
    tr.counts["datagen.rows_read"] += sum(s.T for s in cohort)
    tr.counts["datagen.bytes_read"] += os.path.getsize(args[0])


def _censor_name(args, kwargs):
    return "evaluation.censor_and_recover." + rate_tag(args[1].rate)


# (module, attribute, span name or name function, hook, hook also untraced)
_SITES = [
    ("cli", "main", "cli.main", None, False),
    ("cli", "cmd_rerun", "cli.rerun", None, False),
    ("cli", "simulate_cohort", "datagen.simulate_cohort", None, False),
    ("cli", "save_cohort", "datagen.save_cohort", None, False),
    ("cli", "load_cohort", "datagen.load_cohort", _hook_load_cohort, False),
    ("cli", "fit_shared", "sharing.fit_shared", _hook_fit_shared, True),
    ("cli", "last_point_error", "evaluation.last_point_error", None, False),
    ("cli", "sensitivity_run", "evaluation.sensitivity_run", None, False),
    ("cli", "censor_sweep", "evaluation.censor_sweep", None, False),
    ("cli", "predict_trajectory", "model.predict_trajectory", None, False),
    ("autodiff", "check_gradient", "autodiff.check_gradient", None, False),
    ("autodiff", "gradient", "autodiff.gradient", None, False),
    ("evaluation", "fit_shared", "sharing.fit_shared", _hook_fit_shared, True),
    ("evaluation", "last_point_error", "evaluation.last_point_error", None,
     False),
    ("evaluation", "censor_sweep", "evaluation.censor_sweep", None, False),
    ("evaluation", "censor_and_recover", _censor_name, None, False),
    ("evaluation", "predict_trajectory", "model.predict_trajectory", None,
     False),
    ("evaluation", "fit_linreg_locf", "benchmarks.fit_linreg_locf", None,
     False),
    ("evaluation", "locf_impute", "benchmarks.locf_impute", None, False),
    ("evaluation", "predict_mean", "benchmarks.predict_mean", None, False),
    ("evaluation", "predict_modified_mean", "benchmarks.predict_modified_mean",
     None, False),
    # benchmarks' own globals, and the lazy imports in optimizer.jacobi_etas
    # and optimizer.warm_start_inits, which read these module attributes
    ("benchmarks", "locf_impute", "benchmarks.locf_impute", None, False),
    ("benchmarks", "fit_linreg_locf", "benchmarks.fit_linreg_locf", None,
     False),
    ("benchmarks", "predict_mean", "benchmarks.predict_mean", None, False),
    ("optimizer", "fit_cohort", "optimizer.fit_cohort", _hook_fit_cohort, True),
    ("optimizer", "jacobi_etas", "optimizer.jacobi_etas", None, False),
    ("optimizer", "warm_start_inits", "optimizer.warm_start_inits", None,
     False),
    ("optimizer", "_run_batch", "optimizer.run_batch", _hook_run_batch, False),
    ("sharing", "_run_batch", "optimizer.run_batch", _hook_run_batch, False),
]


def _span_wrapper(tr, fn, name, hook):
    named = callable(name)

    def wrapper(*args, **kwargs):
        i = tr.open(name(args, kwargs) if named else name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tr.close(i)
        if hook is not None:
            hook(tr, out, args, kwargs)
        return out

    return wrapper


def _hook_wrapper(tr, fn, hook):
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        hook(tr, out, args, kwargs)
        return out

    return wrapper


class Instrumentation:
    """Installs span or counter wrappers on a loaded gapfit, and removes them."""

    def __init__(self, modules, tracer):
        self.modules = modules
        self.tracer = tracer
        self._saved = []

    def install(self, spans):
        self.uninstall()
        tr = self.tracer
        for mod_name, attr, name, hook, always in _SITES:
            mod = self.modules[mod_name]
            fn = getattr(mod, attr)
            if spans:
                wrapped = _span_wrapper(tr, fn, name, hook)
            elif always:
                wrapped = _hook_wrapper(tr, fn, hook)
            else:
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, wrapped)
        if spans:
            # main() picks handlers out of this dict, not by global name
            handlers = self.modules["cli"]._HANDLERS
            for cmd in list(handlers):
                fn = handlers[cmd]
                self._saved.append((handlers, cmd, fn))
                handlers[cmd] = _span_wrapper(tr, fn, f"cli.{cmd}", None)

    def uninstall(self):
        for target, key, fn in reversed(self._saved):
            if isinstance(target, dict):
                target[key] = fn
            else:
                setattr(target, key, fn)
        self._saved = []


# ---------------------------------------------------------------------------
# input property a gap-aware kernel depends on


def gap_profile(masks):
    """Share of scored residuals whose previous day was reported, and gaps.

    ``masks`` are (K, T) report masks.  A residual is scored on a reported day
    after the first report.  A gap is a run of unreported days that a report
    closes; trailing runs score nothing and are not gaps.  Returns the counts
    and the mean and max over hospitals of each hospital's longest gap.
    """
    scored = prev = 0
    longest = []
    for r in masks:
        r = np.asarray(r, dtype=bool)
        seen = np.logical_or.accumulate(r, axis=1)
        s = r[:, 1:] & seen[:, :-1]
        scored += int(s.sum())
        prev += int((s & r[:, :-1]).sum())
        run = np.zeros(r.shape[0], dtype=int)
        best = np.zeros(r.shape[0], dtype=int)
        for t in range(1, r.shape[1]):
            best = np.maximum(best, np.where(r[:, t], run, 0))
            run = np.where(~r[:, t] & seen[:, t], run + 1, 0)
        longest.append(best)
    longest = np.concatenate(longest) if longest else np.zeros(0, dtype=int)
    return {
        "scored_residuals": scored,
        "prev_reported": prev,
        "prev_reported_share": prev / scored if scored else 0.0,
        "longest_gap_mean": float(longest.mean()) if len(longest) else 0.0,
        "longest_gap_max": int(longest.max()) if len(longest) else 0,
    }


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass

#: name -> (unit, which direction is better), in the order they are reported
PER_LAYER = {}


def _declare(unit, better, *names):
    for n in names:
        PER_LAYER[n] = (unit, better)


_declare("s", "lower", *[f"cli.{c}_s" for c in CLI_COMMANDS], "cli.rerun_s",
         "cli.self_s")
_declare("bytes", "lower", "cli.bytes_written")
_declare("count", "lower", "cli.csv_rows_written")
_declare("s", "lower", "datagen.simulate_cohort_s", "datagen.save_cohort_s",
         "datagen.load_cohort_s", "datagen.self_s")
_declare("count", "lower", "datagen.rows_read")
_declare("bytes", "lower", "datagen.bytes_read")
_declare("1/s", "higher", "datagen.rows_per_s")
_declare("us", "lower", "optimizer.us_per_hospital_step")
_declare("count", "lower", "optimizer.hospital_steps")
_declare("count", "higher", "optimizer.fits")
_declare("count", "lower", "optimizer.fallbacks", "optimizer.run_batch_calls")
_declare("s", "lower", "optimizer.run_batch_s", "optimizer.jacobi_etas_s",
         "optimizer.warm_start_inits_s", "optimizer.self_s")
_declare("us", "lower", "sharing.us_per_hospital_step")
_declare("count", "lower", "sharing.fit_shared_calls")
_declare("count", "higher", "sharing.rows_per_call")
_declare("s", "lower", "sharing.fit_shared_s", "sharing.self_s")
_declare("s", "lower", *[f"evaluation.censor_and_recover.{rate_tag(r)}_s"
                         for r in CENSOR_RATES],
         "evaluation.censor_sweep_s", "evaluation.last_point_error_s",
         "evaluation.sensitivity_run_s", "evaluation.self_s")
_declare("count", "lower", "benchmarks.fit_linreg_locf_calls",
         "benchmarks.locf_impute_calls", "benchmarks.predict_mean_calls")
_declare("s", "lower", "benchmarks.fit_linreg_locf_s",
         "benchmarks.locf_impute_s", "benchmarks.self_s")
_declare("count", "lower", "model.predict_trajectory_calls")
_declare("s", "lower", "model.predict_trajectory_s", "model.self_s")
_declare("count", "lower", "autodiff.gradient_calls",
         "autodiff.check_gradient_calls")
_declare("s", "lower", "autodiff.check_gradient_s", "autodiff.gradient_s",
         "autodiff.self_s")
_declare("us", "lower", "autodiff.us_per_gradient")
# input.* describe the inputs; they should not move at all
_declare("ratio", "higher", "input.prev_reported_share")
_declare("count", "higher", "input.scored_residuals")
_declare("count", "lower", "input.longest_gap_max")
_declare("days", "lower", "input.longest_gap_mean")
for _r in CENSOR_RATES:
    _declare("ratio", "higher", f"input.{rate_tag(_r)}.prev_reported_share")
    _declare("days", "lower", f"input.{rate_tag(_r)}.longest_gap_mean")
_declare("s", "lower", "trace.traced_wall_s", "trace.untraced_wall_s",
         "trace.overhead_s", "trace.unattributed_s")
_declare("ratio", "higher", "trace.attributed_share")
_declare("count", "lower", "trace.spans")

LAYERS = ("cli", "datagen", "optimizer", "sharing", "evaluation",
          "benchmarks", "model", "autodiff")


def _per(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(spans, counts, masks, files_written):
    """Per-layer metrics of one traced pass (trace.* except spans excluded).

    ``spans`` is the pass's SpanTable whose root is the pass itself;
    ``files_written`` is (bytes, csv rows) of the pass's artifacts.
    """
    m = {}
    for c in CLI_COMMANDS:
        m[f"cli.{c}_s"] = spans.total(f"cli.{c}")
    m["cli.rerun_s"] = spans.total("cli.rerun")
    m["cli.bytes_written"], m["cli.csv_rows_written"] = files_written
    for f in ("simulate_cohort", "save_cohort", "load_cohort"):
        m[f"datagen.{f}_s"] = spans.total(f"datagen.{f}")
    m["datagen.rows_read"] = counts["datagen.rows_read"]
    m["datagen.bytes_read"] = counts["datagen.bytes_read"]
    m["datagen.rows_per_s"] = _per(m["datagen.rows_read"],
                                   m["datagen.load_cohort_s"])

    steps = counts["optimizer.hospital_steps"]
    m["optimizer.run_batch_s"] = spans.total("optimizer.run_batch")
    m["optimizer.us_per_hospital_step"] = _per(m["optimizer.run_batch_s"],
                                               steps, 1e6)
    m["optimizer.hospital_steps"] = steps
    m["optimizer.fits"] = counts["fits"]
    m["optimizer.fallbacks"] = counts["fallbacks"]
    m["optimizer.run_batch_calls"] = spans.calls("optimizer.run_batch")
    m["optimizer.jacobi_etas_s"] = spans.total("optimizer.jacobi_etas")
    m["optimizer.warm_start_inits_s"] = spans.total("optimizer.warm_start_inits")

    setup = ("optimizer.jacobi_etas", "optimizer.warm_start_inits")
    shared_s = spans.total("sharing.fit_shared")
    calls = spans.calls("sharing.fit_shared")
    m["sharing.us_per_hospital_step"] = _per(
        shared_s - spans.child_total("sharing.fit_shared", setup),
        counts["sharing.hospital_steps"], 1e6)
    m["sharing.fit_shared_calls"] = calls
    m["sharing.rows_per_call"] = _per(counts["sharing.rows"], calls)
    m["sharing.fit_shared_s"] = shared_s

    for r in CENSOR_RATES:
        tag = rate_tag(r)
        m[f"evaluation.censor_and_recover.{tag}_s"] = spans.total(
            f"evaluation.censor_and_recover.{tag}")
    for f in ("censor_sweep", "last_point_error", "sensitivity_run"):
        m[f"evaluation.{f}_s"] = spans.total(f"evaluation.{f}")

    for f in ("fit_linreg_locf", "locf_impute"):
        m[f"benchmarks.{f}_calls"] = spans.calls(f"benchmarks.{f}")
        m[f"benchmarks.{f}_s"] = spans.total(f"benchmarks.{f}")
    m["benchmarks.predict_mean_calls"] = spans.calls("benchmarks.predict_mean")
    m["model.predict_trajectory_calls"] = spans.calls("model.predict_trajectory")
    m["model.predict_trajectory_s"] = spans.total("model.predict_trajectory")

    grads = spans.calls("autodiff.gradient")
    m["autodiff.gradient_calls"] = grads
    m["autodiff.gradient_s"] = spans.total("autodiff.gradient")
    m["autodiff.check_gradient_calls"] = spans.calls("autodiff.check_gradient")
    m["autodiff.check_gradient_s"] = spans.total("autodiff.check_gradient")
    m["autodiff.us_per_gradient"] = _per(m["autodiff.gradient_s"], grads, 1e6)

    for layer in LAYERS:
        m[f"{layer}.self_s"] = spans.self_of(layer + ".")

    prof = gap_profile([r for r, _ in masks])
    m["input.prev_reported_share"] = prof["prev_reported_share"]
    m["input.scored_residuals"] = prof["scored_residuals"]
    m["input.longest_gap_mean"] = prof["longest_gap_mean"]
    m["input.longest_gap_max"] = prof["longest_gap_max"]
    for r in CENSOR_RATES:
        tag = rate_tag(r)
        prof = gap_profile([mk for mk, t in masks if t == tag])
        m[f"input.{tag}.prev_reported_share"] = prof["prev_reported_share"]
        m[f"input.{tag}.longest_gap_mean"] = prof["longest_gap_mean"]

    root = spans.parent < 0
    wall = float(spans.dur[root].sum())
    m["trace.traced_wall_s"] = wall
    m["trace.unattributed_s"] = float(spans.self_time[root].sum())
    m["trace.attributed_share"] = _per(wall - m["trace.unattributed_s"], wall)
    m["trace.spans"] = len(spans) - int(root.sum())
    return m
