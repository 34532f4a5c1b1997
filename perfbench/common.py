"""Helpers shared by the benchmark's parent and worker processes."""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: scratch space of a run, inside the checkout and ignored by git
WORK = HERE / "_work"
REFERENCE = HERE / "reference.json"

#: seconds one :func:`calibrate` call took on the container the
#: benchmark was defined on (median of 200 calls)
CAL_REF_S = 0.0030


def calibrate() -> float:
    """Time a fixed, program-independent kernel (a few milliseconds).

    Host speed on a shared machine drifts by tens of percent over
    minutes.  Runs call this between ops and scale their host times by
    ``CAL_REF_S / mean(calibration)``, so a run on a slowed host reports
    what the reference host would have measured; raw values are printed
    beside.  The kernel mixes interpreter work, a heap and NumPy
    sort/gather, like the program's hot loops, and never touches
    ``repro``, so a change to the program cannot move it.
    """
    import heapq

    import numpy as np

    _cal_data()
    t0 = time.perf_counter()
    s = 0
    for i in range(15_000):
        s += i * i
    h: list[int] = []
    for i in range(2_000):
        heapq.heappush(h, (i * 7919) % 10007)
    while h:
        heapq.heappop(h)
    a, idx = _cal_data()
    for _ in range(5):
        np.sort(a)
        a[idx].sum()
    return time.perf_counter() - t0


@functools.cache
def _cal_data():
    import numpy as np

    rng = np.random.default_rng(0)
    return rng.random(20_000), rng.integers(0, 20_000, 20_000)


def speed_factor(samples: list[float]) -> float:
    """Mean calibration time over the reference: > 1 on a slowed host."""
    return (sum(samples) / len(samples)) / CAL_REF_S if samples else 1.0


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it.

    Returns ``(q, value)``: the 11th-largest sample (rank k = n - 10)
    and its percentile rank ``100 * k / n``.  Below 21 samples no such
    percentile lies above the median, so the median sample (rank
    ceil(n/2)) is returned instead.  Every workload measures a fixed
    number of ops, so ``q`` is fixed per workload.
    """
    xs = sorted(values)
    if not xs:
        return 0.0, 0.0
    k = max(len(xs) - 10, (len(xs) + 1) // 2)
    return 100.0 * k / len(xs), float(xs[k - 1])


def median(values) -> float:
    xs = sorted(values)
    if not xs:
        return 0.0
    mid = len(xs) // 2
    return float(xs[mid]) if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2.0


def geomean(values) -> float:
    xs = [v for v in values if v > 0]
    if not xs:
        return 0.0
    return math.exp(sum(math.log(v) for v in xs) / len(xs))


def isclose(a, b, rtol: float = 1e-12) -> bool:
    if a is None or b is None:
        return a is b
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str):
        return a == b
    return math.isclose(float(a), float(b), rel_tol=rtol, abs_tol=0.0)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def child_env() -> dict:
    """Environment of every process the benchmark starts.

    The graph cache and temp files live under ``_work`` so a run reads
    and writes only inside the checkout; ``src`` is importable.
    """
    env = dict(os.environ)
    env["REPRO_GRAPH_CACHE"] = str(WORK / "cache")
    env["TMPDIR"] = str(WORK / "tmp")
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_THREADS", None)
    return env


def _blas() -> dict:
    """BLAS vendor and thread count of the OpenBLAS NumPy loaded."""
    import ctypes

    import numpy as np

    info = {"vendor": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = fn()
                return info
    return info


def source_digest() -> str:
    """sha256 over ``src/**/*.py`` — identifies the program when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        h.update(str(path).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    import numpy as np

    commit = None
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.split()
        if os.path.realpath(top) == os.path.realpath("."):
            commit = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass  # not a git checkout: src_sha256 identifies the program
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "src_sha256": source_digest(),
        "seed": seed,
        "executable": sys.executable,
    }
