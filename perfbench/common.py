"""Helpers shared by the workloads: statistics, host fingerprint, output."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from blas import PIN_ENV, blas_threads

#: Root of the checkout the benchmark runs in (parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch output of runs (ignored by git): logs, probe dumps, ledgers.
OUT = Path(__file__).resolve().parent / ".out"


def child_env(**extra: str) -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ, **PIN_ENV, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
    # repro.obs tracing makes planned convs delegate to the unplanned
    # executor: never let an ambient setting switch it on.
    env.pop("REPRO_TRACE", None)
    env.update(extra)
    return env


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100); NaN when empty."""
    if not values:
        return math.nan
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


#: Equal parts of a window whose 99th percentiles are reported by median.
TAIL_PARTS = 5


def p99_by_parts(values_in_time_order) -> float:
    """99th percentile of each fifth of a window, median of the five.

    A window holds tens to hundreds of requests, so its 99th percentile
    rests on one or two of them; one collision behind a large request
    would swing it.  The median over the parts keeps the tail a run
    normally shows.
    """
    xs = list(values_in_time_order)
    cut = [round(i * len(xs) / TAIL_PARTS) for i in range(TAIL_PARTS + 1)]
    return median([percentile(xs[a:b], 99.0) for a, b in zip(cut, cut[1:])])


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def code_digest() -> str:
    """Content hash of ``src/`` and the benchmark -- identifies the code
    where git can't (the checkout a run happens in need not be a repo)."""
    h = hashlib.blake2b(digest_size=8)
    for base in (SRC, Path(__file__).resolve().parent):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(base)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def blas_peak_gflops() -> dict:
    """One-thread BLAS rate at one fixed conv-shaped GEMM (best of 5).

    2048x1152 @ 1152x128 is a VGG/ResNet-scale im2col product; the
    float64 figure is the peak ``conv.*.gflops`` is compared against
    (every integer GEMM of the engine runs in float64 today).
    """
    import numpy as np

    m, k, n = 2048, 1152, 128
    rng = np.random.default_rng(0)
    out = {}
    for dtype in (np.float64, np.float32):
        a = rng.integers(-8, 8, size=(m, k)).astype(dtype)
        b = rng.integers(-8, 8, size=(k, n)).astype(dtype)
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            a @ b
            best = min(best, time.perf_counter() - t0)
        out[np.dtype(dtype).name] = 2.0 * m * k * n / best / 1e9
    return out


def fingerprint() -> dict:
    """Host and build facts every result carries."""
    import numpy as np

    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    config = np.show_config(mode="dicts") if hasattr(np, "show_config") else {}
    blas = (config or {}).get("Build Dependencies", {}).get("blas", {})
    peak = blas_peak_gflops()
    return {
        "usable_cores": cores,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "blas_pinned_env": PIN_ENV,
        "repro_scale": os.environ.get("REPRO_SCALE", "small"),
        "git_sha": _git_sha(),
        "code_digest": code_digest(),
        "peak_gflops_1t": {k: round(v, 3) for k, v in peak.items()},
    }


def info(tag: str, payload) -> None:
    """One diagnostic line; the result JSON is always the last line."""
    print(f"# {tag} {json.dumps(payload, sort_keys=True)}", flush=True)


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the result line: ``metrics`` maps name -> (value, unit)."""
    for name, (value, _unit) in metrics.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"metric {name} is not a finite number: {value!r}")
    line = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    sys.stdout.write(json.dumps(line) + "\n")
    sys.stdout.flush()
