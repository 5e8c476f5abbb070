"""Benchmark of the ODQ stack: HTTP serving on two backends, offline inference.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-lenet --seed 1 --seconds 15 --trace 0

Workloads (settings in ``spec.py``):

``serve-lenet``
    Open-loop Poisson arrivals over HTTP ``/predict`` against
    ``repro serve --model lenet`` with server defaults (thread pool,
    ``MicroBatcher``, 2 workers).
``serve-lenet-replicas``
    The same traffic shape with ``--replicas auto``; each request
    carries a session affinity key.
``offline-resnet20-sparse``
    Closed-loop ``QuantizedInferenceEngine.infer`` at threshold 0.8
    (sparse result generation), then ``ODQAccelerator.simulate``.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
window again in two halves, the benchmark's probes (``probes.py``) off
then on, and prints every per-layer metric (``ledger.py``; a layer that
does not run on the workload reads 0).  Names and units are the ones
``BENCHMARK.json`` lists.  The last stdout line is the result JSON; the
lines before it (``# <tag> {...}``) are diagnostics: host fingerprint,
setup samples, rungs, correctness, determinism, per-conv ledger.  A run
exits non-zero when a check fails, a count that must repeat does not
(within the run, or against an earlier run of the same code in this
checkout), or a plan compiles inside the timed window.

End-to-end metrics, per workload kind:

=====================  ==================================  =================================
metric                 serve workloads                     offline workload
=====================  ==================================  =================================
``setup_s``            launch to first correct             session build (calibration, plan
                       ``/predict`` (median of launches)   warm-up), median of cold builds
``lat_p50_ms``         request latency from due time at    latency of one batch of the
``lat_p99_ms``         the nominal rate (p99: median of    closed loop (same p99 rule)
                       the fifths' 99th percentiles)
``max_rate_rps``       highest rung of a fixed 12.5%-step  one-image requests answered
                       ladder meeting the p99 limit with   per second back to back (1 /
                       no growing backlog                  median batch-1 infer time)
``ok_frac``            1 - failed / attempted (a failure is a non-2xx, timeout, connection
                       error or wrong-length answer; offline: a batch with non-finite logits)
``pred_match_frac``    served argmax = batch-1 reference   batch-16 argmax = batch-1 argmax
``peak_rss_mb``        VmHWM of server + replicas          VmHWM of the benchmark process
``throughput_ips``     images answered per second on the   images inferred per second
                       highest passing rung (a capacity)   (batches of 16)
``fp_agree_frac``      served argmax = fp32 scheme         batch argmax = fp32 scheme
``sim_cycles_per_img`` ODQ-accelerator cycles of the       ... of one full pass over the
                       batch-1 pass over the request pool  test split (simulated time)
=====================  ==================================  =================================
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from blas import PIN_ENV

# BLAS is pinned before numpy loads, in this process and every child;
# repro.obs tracing stays off (see probes.py).
os.environ.update(PIN_ENV)
os.environ.pop("REPRO_TRACE", None)

from common import OUT, ROOT, SRC, emit, fingerprint, info  # noqa: E402
from spec import OFFLINE, SERVE  # noqa: E402


def _declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*SERVE, *OFFLINE])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = _declared()[args.trace]
    spec = {**SERVE, **OFFLINE}[args.workload]
    os.environ["REPRO_SCALE"] = spec["scale"]

    host = fingerprint()
    info("host", host)
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    if args.workload in SERVE:
        import serve as workload
    else:
        import offline as workload
    correct, attempted, failed, metrics = workload.run(
        args.workload, spec, args.seed, args.seconds, bool(args.trace), out_dir,
        host["peak_gflops_1t"])

    got = {name: u for name, (_v, u) in metrics.items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        units = sorted(n for n in set(got) & set(declared) if got[n] != declared[n])
        print(f"error: metrics differ from BENCHMARK.json: missing={missing} "
              f"extra={extra} unit={units}", file=sys.stderr)
        return 3
    (out_dir / "result.json").write_text(json.dumps(
        {"host": host, "correct": correct, "attempted": attempted,
         "failed": failed, "metrics": {k: v for k, (v, _u) in metrics.items()}},
        indent=1))
    emit(correct, attempted, failed, metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
