"""Every quick demo runs to completion as a script.

Demos 04 and 05 run the full sensitivity and censor studies (over a minute
each) and are left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
QUICK_DEMOS = ["00_synthetic_data.py", "01_autodiff_tape.py",
               "02_fit_one_hospital.py", "03_benchmark_table.py",
               "06_cli_pipeline.py"]


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
