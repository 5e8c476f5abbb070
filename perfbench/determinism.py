"""Counts that must repeat exactly for one seed, and their checks.

A fixed set of images goes through ``engine.infer`` in fixed batches
with fresh layer records; the plan counters, the exec census per conv,
the GEMM call counts and the simulated ODQ-accelerator cycles of that
pass depend on nothing but the code.  Every run repeats such a pass and
requires both to agree (``mismatched``), which needs no earlier state.
It also stores its counts in the checkout's output directory and
compares them with what earlier runs of the same code stored there
(``differences``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np


def pass_counts(records, plan0: dict, plan1: dict, gemm0: dict, gemm1: dict,
                images: int) -> tuple[dict, float]:
    """The counts of one pass from its layer records and counter deltas,
    and the host milliseconds ``ODQAccelerator.simulate`` took."""
    from repro.accel.simulator import ODQAccelerator, workloads_from_records

    census = {}
    for name, r in records.items():
        extra = r.extra
        census[name.split(":", 1)[0]] = [
            int(extra.get("exec_rows_total", 0)),
            int(extra.get("exec_rows_computed", 0)),
            dict(sorted(extra.get("exec_path_calls", {}).items())),
            int(r.sensitive_total)]
    t0 = time.perf_counter()
    sim = ODQAccelerator().simulate(workloads_from_records(records))
    host_ms = (time.perf_counter() - t0) * 1000.0
    counts = {
        "plan": {k: plan1[k] - plan0[k] for k in ("compiles", "hits", "invalidated")},
        "gemm_calls": gemm1["calls"] - gemm0["calls"],
        "gemm_routing": {k: gemm1[k] - gemm0[k]
                         for k in ("pooled_calls", "planned_calls")},
        "census": census,
        "sim_cycles_per_img": sim.total_cycles / images,
        "layer_cycles": {l.name.split(":", 1)[0]: l.cycles / images
                         for l in sim.layers},
    }
    return counts, host_ms


def counted_pass(engine, x: np.ndarray, batch: int) -> tuple[np.ndarray, dict, float]:
    """Infer ``x`` in batches with fresh records; logits, counts, sim ms."""
    from repro.core import gemm

    engine.reset_records()
    plan0, gemm0 = engine.plan_stats(), gemm.stats().as_dict()
    logits = np.concatenate([engine.infer(x[i:i + batch])
                             for i in range(0, len(x), batch)])
    counts, host_ms = pass_counts(engine.records, plan0, engine.plan_stats(),
                                  gemm0, gemm.stats().as_dict(), len(x))
    return logits, counts, host_ms


def _canonical(counts: dict) -> dict:
    # Which calls take the GEMM pool follows a crossover auto-tuned per
    # process, so the split is reported but not required to repeat.
    return {k: v for k, v in json.loads(json.dumps(counts)).items()
            if k != "gemm_routing"}


def mismatched(a: dict, b: dict) -> list[str]:
    """Keys whose counts differ between two passes."""
    ca, cb = _canonical(a), _canonical(b)
    return sorted(k for k in ca.keys() | cb.keys() if ca.get(k) != cb.get(k))


def differences(path: Path, workload: str, counts: dict) -> list[str]:
    """Keys whose counts differ from an earlier run of the same code.

    Each workload's counted pass covers a fixed set of inputs in fixed
    batches, whatever the seed, so every run must agree.  The first run
    of a code version stores its counts.
    """
    from common import code_digest

    key = f"{workload}/code={code_digest()}"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key not in known:
        known[key] = _canonical(counts)
        path.write_text(json.dumps(known, indent=1, sort_keys=True))
        return []
    return mismatched(counts, known[key])
