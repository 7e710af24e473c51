"""Smoke test of the benchmark harness under ``perfbench/``.

Each gated workload runs once in quick, traced mode as a separate process
from the repository root.  Tracing wraps every attribute the workloads reach
(``gapfit.optimizer._run_batch``, ``gapfit.sharing._run_batch``,
``gapfit.cli.fit_shared``, ...), so a renamed or removed function fails here
instead of only when the benchmark is run.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["censor", "pipeline"])
def test_quick_traced_run_has_no_failed_operation(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", "1", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, proc.stdout
