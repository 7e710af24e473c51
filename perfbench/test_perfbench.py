"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

Every workload runs in quick mode (toy sizes, every check enabled), untraced
and traced, as a separate process from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["pipeline", "recover", "censor"])
def test_quick_run_is_correct_and_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    declared = _bench()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        for name in ("fallback_frac", "failed_frac"):
            assert name in proc.stdout


def test_benchmark_json_declares_what_the_code_reports():
    bench = _bench()
    assert [m["name"] for m in bench["workloads"]] == ["pipeline", "censor"]
    assert {m["name"]: (m["unit"], m["better"])
            for m in bench["per_layer"]} == tracing.PER_LAYER
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in bench["end_to_end"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "recover", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_direct_children():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 6]
    spans = tracing.SpanTable(["pass", "x.a", "y.b", "x.c"],
                              [0.0, 1.0, 2.0, 5.0], [10.0, 4.0, 3.0, 6.0],
                              [-1, 0, 1, 0])
    assert list(spans.self_time) == [6.0, 2.0, 1.0, 1.0]
    assert spans.self_time.sum() == spans.dur[0]
    assert spans.self_of("x.") == 3.0
    assert spans.child_total("x.a", ["y.b"]) == 1.0


def test_tracer_nests_spans():
    tr = tracing.Tracer()
    root = tr.open("pass")
    inner = tr.open("evaluation.censor_and_recover.r050")
    assert tr.enclosing("evaluation.censor_and_recover.").endswith("r050")
    tr.close(inner)
    tr.close(root)
    assert tr.parents == [-1, 0]
    assert tr.enclosing("evaluation.") is None


def test_gap_profile_counts_scored_residuals_and_closed_gaps():
    r = np.array([[False, True, True, False, False, True, False],
                  [True, False, True, True, True, True, True]])
    prof = tracing.gap_profile([r])
    # scored days: row 0 -> 2, 5; row 1 -> 2, 3, 4, 5, 6
    assert prof["scored_residuals"] == 7
    # previous day reported: row 0 -> day 2; row 1 -> days 3, 4, 5, 6
    assert prof["prev_reported"] == 5
    # longest gap closed by a report: row 0 -> 2, row 1 -> 1 (trailing
    # unreported days of row 0 close no gap)
    assert prof["longest_gap_max"] == 2
    assert prof["longest_gap_mean"] == 1.5
