"""The offline workload: evaluate-then-simulate, in process.

A closed loop of ``QuantizedInferenceEngine.infer`` over the synthetic
CIFAR-10 test split in fixed batches, then the layers recorded over one
full pass of the split go through ``ODQAccelerator.simulate`` (the
paper's Fig. 19 pipeline).  No HTTP, no batching.

Besides the batch throughput, the checked images also go through one at
a time: that closed loop of one-image requests gives ``max_rate_rps``.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import ledger
from common import OUT, ROOT, child_env, info, median, p99_by_parts, vm_hwm_mb
from determinism import counted_pass, differences, mismatched, pass_counts
from probes import Recorder, install
from spec import SETUPS

BUILD_TIMEOUT_S = 60.0


def _config(spec: dict, scheme: str = "odq") -> dict:
    return {"model": spec["model"], "dataset": spec["dataset"], "scheme": scheme,
            "threshold": spec["threshold"], "max_batch_size": spec["batch"]}


def _cold_build(spec: dict) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("build_session.py")),
         json.dumps(_config(spec))],
        cwd=ROOT, env=child_env(REPRO_SCALE=spec["scale"]), capture_output=True,
        text=True, timeout=BUILD_TIMEOUT_S, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["build_s"]


def _loop(engine, x, start, batch, seconds, keep, counts=None):
    """Infer the split's fixed batches round-robin from batch ``start``
    for ``seconds``; returns the loop's record.

    With ``counts`` (a dict to fill), layer records and GEMM counters are
    taken fresh at the first batch and captured after exactly one full
    pass over the split; the pass is finished past ``seconds`` if need
    be, outside the timed part.
    """
    from repro.core import gemm

    n_batches = len(x) // batch
    images = batches = bad = 0
    kept, lat = [], []
    if counts is not None:
        engine.reset_records()
        counts["gemm0"] = gemm.stats().as_dict()
        counts["plan0"] = engine.plan_stats()
    elapsed, wall_end = 0.0, None
    while elapsed < seconds or (counts is not None and "records" not in counts):
        i = (start + batches) % n_batches
        t0 = time.perf_counter()
        logits = engine.infer(x[i * batch:(i + 1) * batch])
        dt = time.perf_counter() - t0
        if elapsed < seconds:
            elapsed += dt
            lat.append(dt)
            images += batch
            bad += int(not np.isfinite(logits).all())
            if len(kept) * batch < keep:
                kept.append((i, logits))
            if elapsed >= seconds:
                wall_end = time.time()
        batches += 1
        if counts is not None and batches == n_batches:
            counts["records"] = copy.deepcopy(engine.records)
            counts["gemm1"] = gemm.stats().as_dict()
            counts["plan1"] = engine.plan_stats()
    return {"images": images, "batches": len(lat), "bad": bad,
            "elapsed": elapsed, "wall_end": wall_end, "kept": kept, "lat": lat}


def run(name: str, spec: dict, seed: int, seconds: float, trace: bool,
        out_dir: Path, peak: dict) -> tuple[bool, int, int, dict]:
    os.environ["REPRO_SCALE"] = spec["scale"]
    from repro.analysis.workbench import scale_from_env
    from repro.config import DEFAULT_SEED
    from repro.core import gemm
    from repro.data.synthetic import synthetic_cifar10
    from repro.serve.config import ServeConfig
    from repro.serve.session import ModelSession

    scale = scale_from_env()
    x = synthetic_cifar10(image_size=scale.image_size, num_train=16,
                          num_test=spec["test_images"], noise=scale.noise,
                          max_shift=scale.max_shift, seed=DEFAULT_SEED).x_test
    x = x.astype(np.float64)
    batch = spec["batch"]
    # The batches are fixed slices of the split; the seed picks where
    # the loop starts, so the timed window and the checks see other data.
    start = int(np.random.default_rng(seed).integers(len(x) // batch))

    # -- setup: cold builds in fresh processes, then this process's own ---
    repeats = 1 if trace else SETUPS
    samples = [_cold_build(spec) for _ in range(repeats - 1)]
    t0 = time.perf_counter()
    engine = ModelSession(ServeConfig(**_config(spec))).engine
    samples.append(time.perf_counter() - t0)
    engine.infer(x[start * batch:(start + 1) * batch])  # first touch, untimed

    rec = Recorder(bytearray(1))
    if trace:
        install(rec)
    compiles0 = engine.plan_stats()["compiles"]
    full_pass: dict = {}
    if trace:
        untraced = _loop(engine, x, start, batch, seconds / 2.0, 0)
        rec.flag[0] = 1
        w0 = time.time()
        timed = _loop(engine, x, start, batch, seconds / 2.0,
                      spec["check_images"], full_pass)
        w1 = timed["wall_end"]
        rec.flag[0] = 0
    else:
        timed = _loop(engine, x, start, batch, seconds, spec["check_images"],
                      full_pass)
    rss_mb = vm_hwm_mb(os.getpid())
    compiles = engine.plan_stats()["compiles"] - compiles0
    throughput = timed["images"] / timed["elapsed"]

    # -- quality: the same images through fp32, and one at a time --------
    fp = ModelSession(ServeConfig(**_config(spec, scheme="fp32"),
                                  calib_images=1)).engine  # nothing to calibrate
    engine.infer(x[:1])  # compiles the batch-1 plan outside the timing
    agree = match = total = 0
    single_s = []
    for i, logits in timed["kept"]:
        xb = x[i * batch:(i + 1) * batch]
        pred = logits.argmax(axis=1)
        agree += int((fp.infer(xb).argmax(axis=1) == pred).sum())
        for j, p in enumerate(pred):
            t0 = time.perf_counter()
            one = engine.infer(xb[j:j + 1])
            single_s.append(time.perf_counter() - t0)
            match += int(one[0].argmax() == p)
        total += len(xb)

    # -- the same fixed slice twice: its counts must agree ----------------
    repeat_x = x[:spec["repeat_batches"] * batch]
    first, counts_a, _ms = counted_pass(engine, repeat_x, batch)
    second, counts_b, _ms = counted_pass(engine, repeat_x, batch)
    repeat = mismatched(counts_a, counts_b)
    if not np.array_equal(first, second):
        repeat.append("logits")

    # -- one full pass over the split: counts that must repeat exactly ----
    counts, sim_ms = pass_counts(full_pass["records"], full_pass["plan0"],
                                 full_pass["plan1"], full_pass["gemm0"],
                                 full_pass["gemm1"], len(x))
    changed = differences(OUT / "determinism.json", name, counts)
    info("setup", {"samples_s": samples, "gemm_threads": gemm.gemm_threads()})
    info("window", {"images": timed["images"], "batches": timed["batches"],
                    "seconds": timed["elapsed"], "start_batch": start,
                    "nonfinite_batches": timed["bad"],
                    "plan_compiles_in_window": compiles,
                    "single_image_ms_p50": median(single_s) * 1000.0})
    info("determinism", {"differs_from_earlier_runs": changed,
                         "differs_on_repeat": repeat, "plan": counts["plan"],
                         "gemm_calls": counts["gemm_calls"],
                         "gemm_routing": counts["gemm_routing"],
                         "sim_cycles_per_img": counts["sim_cycles_per_img"]})
    info("correctness", {"checked_images": total, "pred_match": match / total,
                         "fp_agree": agree / total})
    correct = (timed["bad"] == 0 and total > 0 and not changed and not repeat
               and compiles == 0)
    attempted, failed = timed["batches"], timed["bad"]

    if not trace:
        lat_ms = [t * 1000.0 for t in timed["lat"]]
        metrics = {
            "setup_s": (median(samples), "s"),
            # One request here is one batch of the closed loop.
            "lat_p50_ms": (median(lat_ms), "ms"),
            "lat_p99_ms": (p99_by_parts(lat_ms), "ms"),
            # One-image requests answered back to back, per second.
            "max_rate_rps": (1.0 / median(single_s), "1/s"),
            "ok_frac": ((attempted - failed) / attempted, "frac"),
            "pred_match_frac": (match / total, "frac"),
            "peak_rss_mb": (rss_mb, "MB"),
            "throughput_ips": (throughput, "1/s"),
            "fp_agree_frac": (agree / total, "frac"),
            "sim_cycles_per_img": (counts["sim_cycles_per_img"], "cycles/img"),
        }
        return correct, attempted, failed, metrics

    dumps = [{"pid": os.getpid(), "events": rec.events}]
    engine_layers, per, census = ledger.engine_metrics(dumps, w0, w1)
    layers = dict.fromkeys(ledger.all_names(), 0.0)
    layers.update(engine_layers)
    for layer, cycles in counts["layer_cycles"].items():
        layers[f"accel.{layer}.cycles"] = cycles
    layers["accel.sim_host_ms"] = sim_ms
    layers["trace.lat_p50_ms"] = median(timed["lat"]) * 1000.0
    layers["trace.overhead_frac"] = (
        (untraced["images"] / untraced["elapsed"]) / throughput - 1.0)
    info("census", {"conv_calls": census, "absent_layers": [
        "serve.http", "serve.batcher", "serve.worker", "cluster.router",
        "benchmark.gen"]})
    table = ledger.conv_table(per, counts["layer_cycles"], peak["float64"])
    ledger.print_table(table)
    (out_dir / "ledger.json").write_text(json.dumps(
        {"layers": layers, "convs": table, "window": [w0, w1]}, indent=1))
    return correct, attempted, failed, {k: (v, ledger.unit(k)) for k, v in layers.items()}
