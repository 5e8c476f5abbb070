"""Per-layer metrics from probe events cut to one measurement window.

Every layer metric the benchmark reports is defined here, with the
layer it belongs to; a layer that does not run on a workload (HTTP in
the offline workload, the batcher behind the replica cluster) reports 0
and is listed as absent in the run's diagnostics.
"""

from __future__ import annotations

from collections import defaultdict

from common import median, percentile
from probes import FIELDS
from spec import CONV_LAYERS

#: Layer -> metric names (``<layer>`` placeholders expanded per conv).
LAYERS = {
    "serve.http": ["http.overhead_p50_ms", "http.overhead_p99_ms",
                   "http.handler_p50_ms", "http.req_kb"],
    "serve.batcher": ["batcher.queue_wait_p50_ms", "batcher.queue_wait_p99_ms",
                      "batcher.batch_images_mean"],
    "serve.worker": ["worker.infer_p50_ms", "worker.ms_per_img",
                     "worker.busy_frac"],
    "cluster.router": ["cluster.server_p50_ms", "cluster.busy_frac",
                       "cluster.imbalance", "cluster.respawns"],
    "core.pipeline": ["engine.ms_per_img", "plan.compiles", "plan.hits",
                      "plan.invalidated", "plan.other_ms"],
    "core.odq": ["odq.sensitive_frac", "odq.sparse_call_frac",
                 "odq.logit_exact_frac"]
    + [f"conv.{c}.ms" for c in CONV_LAYERS]
    + [f"conv.{c}.gflops" for c in CONV_LAYERS]
    + [f"odq.{c}.rows_computed_frac" for c in CONV_LAYERS],
    "core.gemm": ["gemm.calls", "gemm.pooled_calls", "gemm.planned_calls"],
    "accel.simulator": ["accel.sim_host_ms"]
    + [f"accel.{c}.cycles" for c in CONV_LAYERS],
    "benchmark": ["trace.lat_p50_ms", "trace.overhead_frac",
                  "gen.lateness_p99_ms", "gen.achieved_frac"],
}

UNITS = {
    "http.req_kb": "KB", "batcher.batch_images_mean": "img",
    "worker.ms_per_img": "ms/img", "engine.ms_per_img": "ms/img",
    "plan.other_ms": "ms/img", "cluster.respawns": "count",
    "plan.compiles": "count", "plan.hits": "count", "plan.invalidated": "count",
    "gemm.calls": "1/img", "gemm.pooled_calls": "1/img",
    "gemm.planned_calls": "1/img", "cluster.imbalance": "ratio",
}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_frac"):
        return "frac"
    if name.startswith("conv.") and name.endswith(".ms"):
        return "ms/img"
    if name.endswith(".gflops"):
        return "GFLOP/s"
    if name.endswith(".cycles"):
        return "cycles/img"
    return "ms"


def all_names() -> list[str]:
    return [name for names in LAYERS.values() for name in names]


def rows(dump: dict, kind: str, t0: float, t1: float) -> list[dict]:
    """Events of one kind from one process dump inside ``[t0, t1]``."""
    keys = FIELDS[kind]
    return [dict(zip(keys, r)) for r in dump["events"].get(kind, [])
            if t0 <= r[0] <= t1]


def engine_metrics(dumps: list[dict], t0: float, t1: float) -> tuple[dict, dict, dict]:
    """``core.pipeline`` / ``core.plan`` / ``core.odq`` / ``core.gemm``
    metrics, the per-conv sums behind them, and the exec-path census."""
    out: dict[str, float] = {}
    infers = [r for d in dumps for r in rows(d, "infer", t0, t1)]
    images = sum(r["images"] for r in infers)
    out["engine.ms_per_img"] = (
        sum(r["dur"] for r in infers) * 1000.0 / images if images else 0.0)
    out["plan.compiles"] = sum(len(rows(d, "compile", t0, t1)) for d in dumps)
    out["plan.hits"] = sum(r["hits"] for r in infers)
    out["plan.invalidated"] = sum(r["invalidated"] for r in infers)

    convs = [r for d in dumps for r in rows(d, "conv", t0, t1)]
    plans = [r for d in dumps for r in rows(d, "plan", t0, t1)]
    conv_time = sum(r["dur"] for r in convs)
    plan_images = sum(r["images"] for r in plans)
    out["plan.other_ms"] = (
        (sum(r["dur"] for r in plans) - conv_time) * 1000.0 / plan_images
        if plan_images else 0.0)

    per = defaultdict(lambda: defaultdict(float))
    for r in convs:
        acc = per[r["layer"]]
        for key in ("dur", "images", "outputs", "sensitive", "rows_total",
                    "rows_computed", "macs_pred", "macs_full",
                    "dense_calls", "sparse_calls"):
            acc[key] += r[key]
    census = {"dense": 0, "sparse": 0}
    for name in CONV_LAYERS:
        acc = per.get(name)
        ms, gflops, rows_frac = _conv_rates(acc) if acc else (0.0, 0.0, 0.0)
        out[f"conv.{name}.ms"] = ms
        out[f"conv.{name}.gflops"] = gflops
        out[f"odq.{name}.rows_computed_frac"] = rows_frac
        if acc:
            census["dense"] += int(acc["dense_calls"])
            census["sparse"] += int(acc["sparse_calls"])
    outputs = sum(acc["outputs"] for acc in per.values())
    out["odq.sensitive_frac"] = (
        sum(acc["sensitive"] for acc in per.values()) / outputs if outputs else 0.0)
    calls = census["dense"] + census["sparse"]
    out["odq.sparse_call_frac"] = census["sparse"] / calls if calls else 0.0

    gemm = {"gemm.calls": 0, "gemm.pooled_calls": 0, "gemm.planned_calls": 0}
    keys = ("gemm_calls", "gemm_pooled", "gemm_planned")
    for d in dumps:
        marks = [dict(zip(FIELDS["mark"], r)) for r in d["events"].get("mark", [])]
        snaps = sorted(marks + [dict(zip(FIELDS["infer"], r))
                                for r in d["events"].get("infer", [])],
                       key=lambda r: r["t"])
        inside = [s for s in snaps if t0 <= s["t"] <= t1]
        # Baseline: the last count before the window, else the mark taken
        # just before the first call once recording was switched on.
        before = [s for s in snaps if s["t"] < t0] or [
            m for m in marks if t0 <= m["t"] <= t1][:1]
        if not before or not inside:
            continue
        for name, key in zip(gemm, keys):
            gemm[name] += inside[-1][key] - before[-1][key]
    for name, total in gemm.items():
        out[name] = total / images if images else 0.0
    return out, per, census


def _conv_rates(acc: dict) -> tuple[float, float, float]:
    """ms per image, achieved GFLOP/s and share of rows computed of one
    conv's summed probe events (zeros when it saw no images)."""
    if not acc["images"] or not acc["dur"]:
        return 0.0, 0.0, 0.0
    flops = 2.0 * (acc["macs_pred"] + acc["macs_full"])
    rows = acc["rows_computed"] / acc["rows_total"] if acc["rows_total"] else 0.0
    return acc["dur"] * 1000.0 / acc["images"], flops / acc["dur"] / 1e9, rows


def batcher_metrics(dump: dict, t0: float, t1: float) -> dict:
    batches = rows(dump, "batch", t0, t1)
    waits = [w for b in batches for w in b["waits_ms"]]
    return {
        "batcher.queue_wait_p50_ms": percentile(waits, 50) if waits else 0.0,
        "batcher.queue_wait_p99_ms": percentile(waits, 99) if waits else 0.0,
        "batcher.batch_images_mean": (
            sum(b["images"] for b in batches) / len(batches) if batches else 0.0),
    }


def worker_metrics(dump: dict, t0: float, t1: float, workers: int) -> dict:
    infers = rows(dump, "infer", t0, t1)
    images = sum(r["images"] for r in infers)
    busy = sum(r["dur"] for r in infers)
    return {
        "worker.infer_p50_ms": median([r["dur"] * 1000.0 for r in infers])
        if infers else 0.0,
        "worker.ms_per_img": busy * 1000.0 / images if images else 0.0,
        "worker.busy_frac": busy / ((t1 - t0) * workers),
    }


def cluster_metrics(replica_dumps: list[dict], t0: float, t1: float) -> dict:
    busy, images = [], []
    for d in replica_dumps:
        infers = rows(d, "infer", t0, t1)
        busy.append(sum(r["dur"] for r in infers))
        images.append(sum(r["images"] for r in infers))
    mean_images = sum(images) / len(images) if images else 0.0
    return {
        "cluster.busy_frac": sum(busy) / ((t1 - t0) * max(1, len(busy))),
        "cluster.imbalance": max(images) / mean_images if mean_images else 0.0,
    }


def conv_table(per: dict, sim_cycles: dict, peak_gflops: float) -> list[dict]:
    """The per-conv ledger: time, work, achieved vs peak rate, rows, cycles."""
    table = []
    for name in CONV_LAYERS:
        acc = per.get(name)
        if not acc or not acc["images"]:
            continue
        ms, gflops, rows_frac = _conv_rates(acc)
        table.append({
            "layer": name,
            "ms_per_img": round(ms, 4),
            "mmacs_per_img": round((acc["macs_pred"] + acc["macs_full"])
                                   / acc["images"] / 1e6, 4),
            "gflops": round(gflops, 3),
            "peak_frac": round(gflops / peak_gflops, 4),
            "rows_computed_frac": round(rows_frac, 4),
            "dense_calls": int(acc["dense_calls"]),
            "sparse_calls": int(acc["sparse_calls"]),
            "sim_cycles_per_img": round(sim_cycles.get(name, 0.0), 1),
        })
    return table


def print_table(table: list[dict]) -> None:
    cols = ["layer", "ms_per_img", "mmacs_per_img", "gflops", "peak_frac",
            "rows_computed_frac", "dense_calls", "sparse_calls",
            "sim_cycles_per_img"]
    if not table:
        return
    widths = [max(len(c), *(len(str(r[c])) for r in table)) for c in cols]
    print("# ledger " + "  ".join(c.rjust(w) for c, w in zip(cols, widths)))
    for r in table:
        print("# ledger " + "  ".join(str(r[c]).rjust(w) for c, w in zip(cols, widths)))
