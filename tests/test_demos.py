"""Every demo runs to completion as a script, and the README's library tour
runs as written.

Demos 04 and 05 run the full sensitivity and censor studies and take the
longest, about 15 s and 10 s on a 2-core machine.
"""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["00_synthetic_data.py", "01_autodiff_tape.py",
         "02_fit_one_hospital.py", "03_benchmark_table.py",
         "04_sharing_sensitivity.py", "05_censor_and_recover.py",
         "06_cli_pipeline.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_tour_fit_converges():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(tour, "README.md", "exec"), namespace)
    assert namespace["result"].converged
    assert out.getvalue().startswith("True ")
