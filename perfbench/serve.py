"""The HTTP serve workloads: ``repro serve`` driven open loop.

One run launches the server ``SETUPS`` times, timing each launch to
its first correct answer.  Each launch then warms every batch shape the
workload can produce and serves its share of the nominal window
(``--seconds`` at the nominal rate); the last one also climbs the rate
ladder.  Every served answer is then checked against a batch-1
reference built in this process from the same configuration.

With ``--trace 1`` one launch serves the nominal schedule twice, each
half as long: probes off, then on.  The second half gives the per-layer
metrics; the two halves' p50 give the tracing overhead.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np

import ledger
import loadgen
from common import OUT, ROOT, child_env, info, median, percentile, vm_hwm_mb
from determinism import counted_pass, differences, mismatched
from probes import load_events, read_compiles, set_recording
from spec import MULTI_FRAC, P99_LIMIT_MS, POOL_IMAGES, RUNG_SECONDS, SETUPS

#: Images a request may carry: the batcher's (and the cluster's chunk)
#: default ``max_batch_size``, so every coalesced shape is 1..8.
MAX_IMAGES = 8
WARM_TRIES = 60
START_TIMEOUT_S = 45.0
#: A nominal phase this far behind schedule has a stalled server: stop.
NOMINAL_ABORT_S = 10.0
STOP_TIMEOUT_S = 30.0


class Server:
    """One ``repro serve`` process (plus its replicas) and its log."""

    def __init__(self, spec: dict, probe_dir: Path, log_path: Path) -> None:
        self.spec = spec
        self.probe_dir = probe_dir
        self.url: str | None = None
        self._ready = threading.Event()
        args = [sys.executable, str(Path(__file__).with_name("serverhost.py")),
                "--model", spec["model"], "--dataset", spec["dataset"],
                "--replicas", spec["replicas"], "--port", "0"]
        env = child_env(REPRO_SCALE=spec["scale"], PERFBENCH_PROBE_DIR=str(probe_dir))
        self.log = open(log_path, "a")
        self.proc = subprocess.Popen(args, cwd=ROOT, env=env, text=True,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.STDOUT)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        marker = "listening on "
        for line in self.proc.stdout:
            self.log.write(line)
            if marker in line and self.url is None:
                self.url = line.split(marker, 1)[1].strip()
                self._ready.set()
        self._ready.set()

    @property
    def port(self) -> int:
        return int(self.url.rsplit(":", 1)[1])

    def get(self, path: str) -> dict:
        with urllib.request.urlopen(self.url + path, timeout=30) as resp:
            return json.loads(resp.read())

    def wait_first_correct(self, body: bytes, deadline: float) -> None:
        """Block until ``/predict`` answers one well-formed prediction."""
        while not self._ready.wait(0.05):
            if time.monotonic() > deadline:
                raise RuntimeError("server did not start listening")
        if self.url is None:
            raise RuntimeError(f"server exited with {self.proc.poll()}")
        while time.monotonic() < deadline:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
            try:
                status, raw = loadgen.post(conn, body)
                out = loadgen.Outcome()
                loadgen.check(status, raw, 1, out)
                if out.ok:
                    return
            except (OSError, http.client.HTTPException):
                pass
            finally:
                conn.close()
            time.sleep(0.02)
        raise RuntimeError("no correct /predict before the start timeout")

    def replica_pids(self) -> list[int]:
        if self.spec["replicas"] == "1":
            return []
        return [row["pid"] for row in self.get("/healthz").get("replicas", [])]

    def stop(self) -> None:
        """SIGINT (graceful drain, as Ctrl-C), then escalate on timeout."""
        pids = []
        if self.proc.poll() is None:
            try:
                pids = self.replica_pids()
            except OSError:
                pass
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(STOP_TIMEOUT_S)
        self._reader.join(STOP_TIMEOUT_S)
        self.log.close()
        for pid in pids:  # replicas exit on drain; never leave one behind
            deadline = time.monotonic() + STOP_TIMEOUT_S
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/status") as fh:
            return not any(line.startswith("State:") and "Z" in line.split()[1]
                           for line in fh)
    except FileNotFoundError:
        return False


def _pool(spec: dict) -> np.ndarray:
    """Request images: the head of the repo's synthetic test split at its
    default seed, rounded to four decimals as a client would send them."""
    os.environ["REPRO_SCALE"] = spec["scale"]
    from repro.analysis.workbench import scale_from_env
    from repro.config import DEFAULT_SEED
    from repro.data.synthetic import synthetic_cifar10, synthetic_mnist

    scale = scale_from_env()
    kwargs = dict(num_train=16, num_test=POOL_IMAGES, seed=DEFAULT_SEED,
                  max_shift=scale.max_shift)
    if spec["dataset"] == "mnist":
        ds = synthetic_mnist(**kwargs)
    else:
        ds = synthetic_cifar10(image_size=scale.image_size, noise=scale.noise, **kwargs)
    return np.round(ds.x_test.astype(np.float64), 4)


def _reference(spec: dict, pool: np.ndarray) -> tuple:
    """Batch-1 logits and fp32 predictions for the pool, the counts of
    that batch-1 pass (simulated accelerator cycles included), and the
    count keys in which a second, identical pass differed from it.

    Built in this process from the served configuration.  GEMMs run
    serially here: the pool changes speed only (bit-identical by
    construction), and fixing its tuning skips the one-time auto-tune.
    fp32 has nothing to calibrate.
    """
    from repro.core import gemm
    from repro.serve.config import ServeConfig
    from repro.serve.session import ModelSession

    os.environ["REPRO_SCALE"] = spec["scale"]
    gemm.configure(threads=1, min_flops=math.inf)
    config = {"model": spec["model"], "dataset": spec["dataset"]}
    engine = ModelSession(ServeConfig(**config)).engine
    engine.infer(pool[:1])  # compiles the batch-1 plan: both passes run warm
    logits, counts, sim_ms = counted_pass(engine, pool, 1)
    again, counts_again, _ms = counted_pass(engine, pool, 1)
    repeat = mismatched(counts, counts_again)
    if not np.array_equal(logits, again):
        repeat.append("logits")
    fp = ModelSession(ServeConfig(**config, scheme="fp32", calib_images=1)).engine
    return logits, fp.infer(pool).argmax(axis=1), counts, sim_ms, repeat


def _warm(server: Server, spec: dict, fragments: list[str], cluster: bool) -> dict:
    """Send each request size until every engine has compiled its plan.

    Plans are shape-specialized, so a shape first seen inside the window
    would put a compile into the measurement.  The thread pool has one
    engine per worker; each replica process has its own, reached here
    through a session key the consistent-hash ring assigns to it, so the
    replicas warm in parallel.
    """
    if cluster:
        from repro.cluster.hashring import HashRing

        rows = server.get("/healthz")["replicas"]
        ring = HashRing(range(len(rows)))
        keys = [f"client-{k}" for k in range(spec["sessions"])]
        targets = []
        for row in rows:
            key = next((k for k in keys if ring.preference(k)[0] == row["replica"]), None)
            targets.append((row["pid"], key, 1))
    else:
        targets = [(server.proc.pid, None, 2)]  # serve default: 2 workers
    sent, uncovered = [], []

    def covered(pid: int, size: int, engines: int) -> bool:
        rows = read_compiles(server.probe_dir).get(pid, [])
        return len({r[2] for r in rows if r[3] == size}) >= engines

    def warm_one(pid: int, key: str | None, engines: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        n = 0
        try:
            for size in range(1, MAX_IMAGES + 1):
                for attempt in range(WARM_TRIES):
                    if covered(pid, size, engines):
                        break
                    # Idle workers poll the batcher on a fixed period; an
                    # uneven pause keeps one of them from winning every time.
                    time.sleep(attempt * 0.023 % 0.07)
                    (req,) = loadgen.encode([(0.0, tuple(range(size)), key)], fragments)
                    loadgen.post(conn, req.body)
                    n += 1
                else:
                    uncovered.append((pid, size))
        finally:
            conn.close()
            sent.append(n)

    threads = [threading.Thread(target=warm_one, args=t) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return {"requests": sum(sent), "uncovered": uncovered}


def _run_rows(server, fragments, rows, rate, abort_late_s):
    """Send one pre-drawn schedule; returns outcomes, summary, wall window
    and start time."""
    reqs = loadgen.encode(rows, fragments)
    wall0 = time.time()
    outcomes, start = loadgen.run("127.0.0.1", server.port, reqs,
                                  connections=_connections(),
                                  abort_late_s=abort_late_s)
    wall1 = time.time()
    summary = loadgen.summarize([(outcomes, start)], rate)
    summary["aborted"] = len(outcomes) < len(reqs)
    return outcomes, summary, (wall0, wall1), start


def _rows(spec, seed, rate, seconds):
    """One phase's schedule: the arrival pattern (times, request sizes,
    sessions) belongs to the workload and repeats in every run; the seed
    draws the images.  Run-to-run spread then measures the system, not
    which requests happened to bunch up."""
    key = int(rate * 1000)
    return loadgen.schedule(np.random.default_rng([spec["stream"], key]),
                            np.random.default_rng([seed, key]), rate, seconds,
                            MULTI_FRAC, POOL_IMAGES, spec["sessions"])


def _rung(server, spec, fragments, seed, rate):
    """One ladder rung; it stops once the backlog outgrows twice the limit."""
    rows = _rows(spec, seed, rate, RUNG_SECONDS)
    return _run_rows(server, fragments, rows, rate, 2 * P99_LIMIT_MS / 1000.0)


def _connections() -> int:
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def _passes(summary: dict) -> bool:
    """A rung holds: nothing dropped, p99 (failures as misses) within the
    limit, and no growing backlog: the last quarter of requests, by due
    time, still has its median latency within the limit."""
    p99 = summary["p99_with_failures_ms"]
    return (not summary["aborted"]
            and not math.isnan(p99) and p99 <= P99_LIMIT_MS
            and summary["tail_p50_ms"] <= P99_LIMIT_MS)


def _ladder(server, spec, fragments, seed) -> tuple[float, float, list, list]:
    """Highest rung meeting the limit, the images per second answered on
    it, the rung log and outcomes.

    Starts at the workload's fixed ``ladder_start_rps`` rung and climbs
    while rungs hold; when the start rung fails, steps down until one
    holds.
    """
    rungs = sorted(spec["ladder_rps"])
    first = rungs.index(spec["ladder_start_rps"])
    log, outcomes = [], []

    def attempt(rate: float) -> tuple[bool, float]:
        outs, summary, _win, _start = _rung(server, spec, fragments, seed, rate)
        ok = _passes(summary)
        outcomes.extend(outs)
        log.append({"rate": rate, "ok": ok, **{
            k: summary[k] for k in ("p50_ms", "p99_ms", "tail_p50_ms",
                                    "achieved_rps", "images_per_s",
                                    "lateness_p99_ms", "aborted")}})
        return ok, summary["images_per_s"]

    best, best_ips = 0.0, 0.0
    for rate in rungs[first:]:
        ok, ips = attempt(rate)
        if not ok:
            break
        best, best_ips = rate, ips
    if not best:
        for rate in reversed(rungs[:first]):
            ok, ips = attempt(rate)
            if ok:
                best, best_ips = rate, ips
                break
    return best, best_ips, log, outcomes


def _start(spec: dict, probe_dir: Path, log_path: Path, first_body: bytes):
    """Launch the server; returns it and the seconds to a first correct answer."""
    shutil.rmtree(probe_dir, ignore_errors=True)
    probe_dir.mkdir(parents=True)
    (probe_dir / "ctl").write_bytes(b"\x00")
    t0 = time.perf_counter()
    server = Server(spec, probe_dir, log_path)
    try:
        server.wait_first_correct(first_body, time.monotonic() + START_TIMEOUT_S)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - t0


def _measure(server, spec, fragments, seed, rows, trace, ladder) -> dict:
    """Warm up, then the timed phases of one launch: the nominal rows
    (with ``trace``, twice: probes off, then on) and, with ``ladder``,
    the rate ladder."""
    cluster = spec["replicas"] != "1"
    out = {"warm": _warm(server, spec, fragments, cluster)}
    compiles0 = sum(map(len, read_compiles(server.probe_dir).values()))
    rate = spec["nominal_rps"]
    if trace:
        for label, on in (("untraced", False), ("traced", True)):
            set_recording(server.probe_dir, on)
            out[label] = _run_rows(server, fragments, rows, rate, NOMINAL_ABORT_S)
        set_recording(server.probe_dir, False)
    else:
        out["nominal"] = _run_rows(server, fragments, rows, rate, NOMINAL_ABORT_S)
    if ladder:
        out["max_rate"], out["max_rate_ips"], out["ladder"], out["ladder_outs"] = _ladder(
            server, spec, fragments, seed)
    out["compiles"] = sum(map(len, read_compiles(server.probe_dir).values())) - compiles0
    out["health"] = health = server.get("/healthz")
    out["pids"] = [server.proc.pid] + [r["pid"] for r in health.get("replicas", [])]
    out["rss_mb"] = sum(vm_hwm_mb(pid) for pid in out["pids"])
    return out


def _check(spec, pool, outs, cluster) -> dict:
    """Every served answer against the in-process batch-1 reference."""
    ref, fp_pred, counts, sim_ms, repeat = _reference(spec, pool)
    matched = exact = served = fp_agree = single_mismatch = 0
    for o in outs:
        if not o.ok:
            continue
        for img, pred, logits in zip(o.images, o.predictions, o.logits):
            served += 1
            want = ref[img]
            matched += int(pred == int(np.argmax(want)))
            fp_agree += int(pred == int(fp_pred[img]))
            same = np.array_equal(np.asarray(logits, dtype=np.float64), want)
            exact += int(same)
            if cluster and len(o.images) == 1 and not same:
                single_mismatch += 1
    frac = (lambda n: n / served) if served else (lambda n: 0.0)
    return {"served_images": served, "pred_match": frac(matched),
            "fp_agree": frac(fp_agree), "logit_exact": frac(exact),
            "single_image_mismatch": single_mismatch,
            "errors": sorted({o.error for o in outs if not o.ok}),
            "counts": counts, "sim_ms": sim_ms, "repeat_differs": repeat}


def _segments(rows, parts: int, seconds: float) -> list[list[tuple]]:
    """Cut a schedule into ``parts`` consecutive pieces, each re-based to 0."""
    length = seconds / parts
    return [[(due - k * length, images, session) for due, images, session in rows
             if k * length <= due < (k + 1) * length] for k in range(parts)]


def run(name: str, spec: dict, seed: int, seconds: float, trace: bool,
        out_dir: Path, peak: dict) -> tuple[bool, int, int, dict]:
    cluster = spec["replicas"] != "1"
    pool = _pool(spec)
    fragments = [json.dumps(img.tolist()) for img in pool]
    (first,) = loadgen.encode([(0.0, (0,), None)], fragments)
    rate = spec["nominal_rps"]

    # Every launch times its setup and serves its share of the nominal
    # window (a launch's own speed varies more than requests within it
    # do); the rate ladder runs on the last.
    launches = 1 if trace else SETUPS
    window_s = seconds / 2.0 if trace else seconds
    pieces = _segments(_rows(spec, seed, rate, window_s), launches, window_s)
    setup_samples, runs = [], []
    for i in range(launches):
        server, setup = _start(spec, out_dir / f"probes-{i}", out_dir / "server.log",
                               first.body)
        setup_samples.append(setup)
        try:
            runs.append(_measure(server, spec, fragments, seed, pieces[i], trace,
                                 ladder=not trace and i == launches - 1))
        finally:
            server.stop()
    last = runs[-1]
    t_check = time.perf_counter()
    if trace:
        outs, nominal, window, _start_t = last["traced"]
        all_outs = last["untraced"][0] + outs
    else:
        outs = [o for r in runs for o in r["nominal"][0]]
        nominal = loadgen.summarize([(r["nominal"][0], r["nominal"][3]) for r in runs],
                                    rate)
        window = last["nominal"][2]
        all_outs = outs + last["ladder_outs"]
    (out_dir / "requests.json").write_text(json.dumps([
        {"due_s": o.due - outs[0].due, "images": len(o.images), "ok": o.ok,
         "latency_ms": o.latency_ms, "rtt_ms": o.rtt_ms, "server_ms": o.server_ms}
        for o in outs]))
    chk = _check(spec, pool, all_outs, cluster)
    counts = chk.pop("counts")
    changed = differences(OUT / "determinism.json", name, counts)
    dumps = load_events(out_dir / f"probes-{launches - 1}")

    info("setup", {"samples_s": setup_samples})
    info("warm", [r["warm"] for r in runs])
    if trace:
        info("untraced_half", last["untraced"][1])
    info("nominal", nominal)
    for rung in last.get("ladder", []):
        info("rung", rung)
    info("server", {"gemm_threads": last["health"]["session"].get("gemm_threads"),
                    "plan_compiles_in_window": [r["compiles"] for r in runs],
                    "blas_threads": {d["pid"]: d["blas_threads"] for d in dumps}})
    info("determinism", {"differs_from_earlier_runs": changed,
                         "differs_on_repeat": chk["repeat_differs"], "plan": counts["plan"],
                         "gemm_calls": counts["gemm_calls"],
                         "gemm_routing": counts["gemm_routing"],
                         "sim_cycles_per_img": counts["sim_cycles_per_img"]})
    info("correctness", {k: v for k, v in chk.items() if k != "sim_ms"})
    info("reference_s", round(time.perf_counter() - t_check, 2))
    # Batch-dependent activation ranges may flip a close argmax when the
    # batcher groups images; a wrong model or a scrambled reply would not
    # come near this floor.  In the cluster a one-image request is a
    # one-image chunk, so its logits must equal batch 1 bit for bit.
    # Every batch shape was warmed, so no plan may compile in the window.
    phases = [r[k] for r in runs for k in ("nominal", "untraced", "traced") if k in r]
    correct = (chk["served_images"] > 0 and chk["pred_match"] >= 0.95
               and chk["single_image_mismatch"] == 0 and not changed
               and not chk["repeat_differs"]
               and not any(r["compiles"] for r in runs)
               and not any(r["warm"]["uncovered"] for r in runs)
               and not any(p[1]["aborted"] for p in phases))
    attempted = len(all_outs)
    failed = sum(1 for o in all_outs if not o.ok)

    if not trace:
        metrics = {
            "setup_s": (median(setup_samples), "s"),
            "lat_p50_ms": (nominal["p50_ms"], "ms"),
            "lat_p99_ms": (nominal["p99_ms"], "ms"),
            "max_rate_rps": (last["max_rate"], "1/s"),
            "ok_frac": ((attempted - failed) / attempted, "frac"),
            "pred_match_frac": (chk["pred_match"], "frac"),
            "peak_rss_mb": (max(r["rss_mb"] for r in runs), "MB"),
            "throughput_ips": (last["max_rate_ips"], "1/s"),
            "fp_agree_frac": (chk["fp_agree"], "frac"),
            "sim_cycles_per_img": (counts["sim_cycles_per_img"], "cycles/img"),
        }
        return correct, attempted, failed, metrics

    layers = _layer_metrics(dumps, last["pids"], window, outs, nominal,
                            last["untraced"][1], last["health"], chk, counts, cluster)
    table = ledger.conv_table(layers.pop("_per"), counts["layer_cycles"],
                              peak["float64"])
    ledger.print_table(table)
    (out_dir / "ledger.json").write_text(json.dumps(
        {"layers": layers, "convs": table, "window": window}, indent=1))
    return correct, attempted, failed, {k: (v, ledger.unit(k)) for k, v in layers.items()}


def _layer_metrics(dumps, pids, window, outs, nominal, untraced, health, chk,
                   counts, cluster) -> dict:
    """Per-layer metrics of the traced half (absent layers read 0)."""
    t0, t1 = window
    server_dump = next(d for d in dumps if d["pid"] == pids[0])
    engine, per, census = ledger.engine_metrics(dumps, t0, t1)
    layers = dict.fromkeys(ledger.all_names(), 0.0)
    layers.update(engine)
    ok = [o for o in outs if o.ok]
    overhead = [o.rtt_ms - o.server_ms for o in ok]
    posts = ledger.rows(server_dump, "post", t0, t1)
    layers.update({
        "http.overhead_p50_ms": median(overhead),
        "http.overhead_p99_ms": percentile(overhead, 99),
        "http.handler_p50_ms": median([p["dur"] * 1000.0 for p in posts]),
        "http.req_kb": sum(o.req_bytes for o in outs) / len(outs) / 1024.0,
        "odq.logit_exact_frac": chk["logit_exact"],
        "accel.sim_host_ms": chk["sim_ms"],
        "trace.lat_p50_ms": nominal["p50_ms"],
        "trace.overhead_frac": nominal["p50_ms"] / untraced["p50_ms"] - 1.0,
        "gen.lateness_p99_ms": nominal["lateness_p99_ms"],
        "gen.achieved_frac": nominal["achieved_rps"] / nominal["offered_rps"],
    })
    for layer, cycles in counts["layer_cycles"].items():
        layers[f"accel.{layer}.cycles"] = cycles
    if cluster:
        layers.update(ledger.cluster_metrics(
            [d for d in dumps if d["pid"] in pids[1:]], t0, t1))
        layers["cluster.server_p50_ms"] = median([o.server_ms for o in ok])
        layers["cluster.respawns"] = float(sum(r.get("respawns", 0)
                                               for r in health["replicas"]))
        absent = ["serve.batcher", "serve.worker"]
    else:
        layers.update(ledger.batcher_metrics(server_dump, t0, t1))
        layers.update(ledger.worker_metrics(server_dump, t0, t1, workers=2))
        absent = ["cluster.router"]
    info("census", {"conv_calls": census, "absent_layers": absent})
    layers["_per"] = per
    return layers
