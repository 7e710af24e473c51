"""Machine record and the fixed numpy calibration loop.

The calibration loop is timed in every run so that a slow stretch of the host
shows in the record.  It never rescales a result.
"""

from __future__ import annotations

import glob
import os
import platform
import time

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
BLAS_THREADS = "1"


def pin_blas_threads():
    """Pin BLAS (used only by ``lstsq`` here) to one thread.

    Takes effect only before numpy is first imported, so this module imports
    numpy inside its functions.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def cache_sizes():
    """CPU 0's caches as read from /sys, e.g. {"L1d": "48K", "L2": "2048K"}."""
    out = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (_read(os.path.join(d, f))
                             for f in ("level", "type", "size"))
        if level is None or size is None:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[f"L{level}{suffix}"] = size
    return out


def _cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _blas():
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return {k: deps.get(k) for k in ("name", "version",
                                     "openblas configuration")}


def threads():
    """Operating-system threads of this process right now."""
    for line in (_read("/proc/self/status") or "").splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return None


def record():
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_thread_pin": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "caches": cache_sizes(),
    }


def calibrate():
    """Seconds for a fixed loop of small-array numpy ops and one matmul block.

    The small-array part runs in the same per-call-overhead regime as the
    batch kernel (K = 463); the matmul part exercises BLAS.
    """
    import numpy as np

    x = np.linspace(0.0, 1.0, 463)
    m = np.linspace(0.0, 1.0, 128 * 128).reshape(128, 128)
    t0 = time.perf_counter()
    for _ in range(5000):
        x = np.where(x > 0.5, x * 0.999, x + 0.001)
    for _ in range(20):
        m = np.tanh(m @ m / 128.0)
    return time.perf_counter() - t0
