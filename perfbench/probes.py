"""Timing probes around the public entry points of each ODQ-stack layer.

The benchmark never turns on ``repro.obs`` tracing: under tracing the
compiled plans delegate their convs to the unplanned executor, so the
traced path would not be the served path.  Instead :func:`install`
wraps, at class level, the calls one layer makes into the next:

=====================  =================================================
layer                  wrapped entry point
=====================  =================================================
``serve.http``         ``ServeRequestHandler.do_POST``
``serve.batcher``      ``MicroBatcher.next_batch`` (dispatched batches)
``serve.worker`` /     ``QuantizedInferenceEngine.infer`` (plus plan and
``core.pipeline``      GEMM counters read after each call)
``core.plan``          ``InferencePlan.run``, ``compile_plan``
``core.odq`` /         ``PlannedConvStep.run`` -- the compiled plan's conv
``core.colcache``      steps, not ``ODQConvExecutor.run``: an instance
                       patch of ``run`` would invalidate every plan
=====================  =================================================

``accel.simulator`` is timed where the benchmark calls it
(:mod:`determinism`).

Each wrapper appends one tuple per call to a :class:`Recorder`, stamped
with wall-clock time so that events from the server and its replica
processes can be cut to the benchmark's measurement window afterwards.
Recording is gated by one control byte (a shared ``mmap`` when the
probes run inside a server, a ``bytearray`` in-process), so one server
can serve an untraced and a traced phase back to back.  Plan compiles
are always recorded, and in a server also appended to a per-process log
at once, because the benchmark's warm-up waits on them.
"""

from __future__ import annotations

import atexit
import json
import mmap
import os
import threading
import time
from pathlib import Path

from blas import blas_threads

#: Event kinds and the fields of their tuples (see ``Recorder.events``).
FIELDS = {
    # Plan counters are this call's deltas; GEMM counters are the
    # process-wide totals after the call ("mark" holds the baseline).
    "infer": ("t", "dur", "images", "engine", "compiles", "hits",
              "invalidated", "gemm_calls", "gemm_pooled", "gemm_planned"),
    "mark": ("t", "gemm_calls", "gemm_pooled", "gemm_planned"),
    "plan": ("t", "dur", "images"),
    "conv": ("t", "dur", "layer", "images", "outputs", "sensitive",
             "rows_total", "rows_computed", "macs_pred", "macs_full",
             "dense_calls", "sparse_calls"),
    "batch": ("t", "images", "requests", "waits_ms"),
    "post": ("t", "dur"),
    "compile": ("t", "dur", "engine", "images"),
}


class Recorder:
    """Per-process event store; ``flag[0]`` switches recording on."""

    def __init__(self, flag, compile_log: Path | None = None) -> None:
        self.flag = flag
        self.events: dict[str, list] = {kind: [] for kind in FIELDS}
        self._compile_log = compile_log
        self._log_lock = threading.Lock()

    @property
    def on(self) -> bool:
        return bool(self.flag[0])

    def add(self, kind: str, row: tuple) -> None:
        self.events[kind].append(row)

    def note_compile(self, row: tuple) -> None:
        self.events["compile"].append(row)
        if self._compile_log is not None:
            with self._log_lock, open(self._compile_log, "a") as fh:
                fh.write(json.dumps(row) + "\n")

    def dump(self, path: Path) -> None:
        payload = {
            "pid": os.getpid(),
            "blas_threads": blas_threads(),
            "events": self.events,
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(path)


def _short(layer: str) -> str:
    """``"C5:stage1.layers.1.conv2"`` -> ``"C5"`` (metric-name safe)."""
    return layer.split(":", 1)[0]


def install(rec: Recorder) -> None:
    """Wrap every probed entry point so calls are reported to ``rec``."""
    from repro.core import gemm
    from repro.core import plan as plan_mod
    from repro.core.pipeline import QuantizedInferenceEngine
    from repro.serve.batcher import MicroBatcher
    from repro.serve.http import ServeRequestHandler

    clock, wall = time.perf_counter, time.time

    infer = QuantizedInferenceEngine.infer
    armed = [False]

    def plan_counts(engine) -> tuple:
        ps = engine.plan_stats()
        return ps["compiles"], ps["hits"], ps["invalidated"]

    def timed_infer(self, x):
        if not rec.on:
            armed[0] = False
            return infer(self, x)
        if not armed[0]:
            # GEMM counters are process-wide: keep a baseline at the
            # moment recording starts, so window deltas have a floor.
            armed[0] = True
            gs = gemm.stats()
            rec.add("mark", (wall(), gs.calls, gs.pooled_calls, gs.planned_calls))
        before = plan_counts(self)
        t0 = clock()
        out = infer(self, x)
        dur = clock() - t0
        d = [a - b for a, b in zip(plan_counts(self), before)]
        gs = gemm.stats()
        rec.add("infer", (wall(), dur, int(x.shape[0]), id(self), *d,
                          gs.calls, gs.pooled_calls, gs.planned_calls))
        return out

    plan_run = plan_mod.InferencePlan.run

    def timed_plan_run(self, x):
        if not rec.on:
            return plan_run(self, x)
        t0 = clock()
        out = plan_run(self, x)
        rec.add("plan", (wall(), clock() - t0, int(x.shape[0])))
        return out

    step_run = plan_mod.PlannedConvStep.run

    def conv_counts(record) -> tuple:
        extra = record.extra
        calls = extra.get("exec_path_calls", {})
        return (record.outputs_total, record.sensitive_total,
                extra.get("exec_rows_total", 0), extra.get("exec_rows_computed", 0),
                extra.get("exec_flops_full", 0),
                calls.get("dense", 0), calls.get("sparse", 0))

    def timed_step_run(self, x):
        if not rec.on:
            return step_run(self, x)
        before = conv_counts(self.ex.record)
        t0 = clock()
        out = step_run(self, x)
        dur = clock() - t0
        d = [a - b for a, b in zip(conv_counts(self.ex.record), before)]
        macs_pred = d[0] * self.ex.info.macs_per_output
        rec.add("conv", (wall(), dur, _short(self.ex.info.name), int(x.shape[0]),
                         *d[:4], macs_pred, *d[4:]))
        return out

    compile_plan = plan_mod.compile_plan

    def timed_compile(engine, x):
        t0 = clock()
        out = compile_plan(engine, x)
        rec.note_compile((wall(), clock() - t0, id(engine), int(x.shape[0])))
        return out

    next_batch = MicroBatcher.next_batch

    def timed_next_batch(self, timeout=None):
        batch = next_batch(self, timeout)
        if batch is not None and rec.on:
            waits = [round(w * 1000.0, 4) for w in batch.queue_waits()]
            rec.add("batch", (wall(), batch.size, len(batch.requests), waits))
        return batch

    do_post = ServeRequestHandler.do_POST

    def timed_do_post(self):
        if not rec.on:
            return do_post(self)
        t0 = clock()
        try:
            return do_post(self)
        finally:
            rec.add("post", (wall(), clock() - t0))

    QuantizedInferenceEngine.infer = timed_infer
    plan_mod.InferencePlan.run = timed_plan_run
    plan_mod.PlannedConvStep.run = timed_step_run
    plan_mod.compile_plan = timed_compile
    MicroBatcher.next_batch = timed_next_batch
    ServeRequestHandler.do_POST = timed_do_post


def install_in_server(probe_dir: Path) -> Recorder:
    """Probes for a server or replica process, driven by ``probe_dir``.

    The benchmark creates ``probe_dir/ctl`` (one byte) before launch and
    flips it to switch recording; each process writes its events to
    ``probe_dir/events-<pid>.json`` when it exits.
    """
    fd = os.open(probe_dir / "ctl", os.O_RDONLY)
    try:
        flag = mmap.mmap(fd, 1, access=mmap.ACCESS_READ)
    finally:
        os.close(fd)
    pid = os.getpid()
    rec = Recorder(flag, compile_log=probe_dir / f"compiles-{pid}.jsonl")
    install(rec)
    atexit.register(rec.dump, probe_dir / f"events-{pid}.json")
    return rec


def set_recording(probe_dir: Path, on: bool) -> None:
    """Flip the control byte in place (truncating it would fault readers)."""
    with open(probe_dir / "ctl", "r+b") as fh:
        fh.write(b"\x01" if on else b"\x00")


def load_events(probe_dir: Path) -> list[dict]:
    """Every process's dump in ``probe_dir`` (server first, then replicas)."""
    return [json.loads(p.read_text()) for p in sorted(probe_dir.glob("events-*.json"))]


def read_compiles(probe_dir: Path) -> dict[int, list]:
    """Compile events logged so far, keyed by process id."""
    out: dict[int, list] = {}
    for path in probe_dir.glob("compiles-*.jsonl"):
        pid = int(path.stem.split("-", 1)[1])
        rows = []
        for line in path.read_text().splitlines():
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError:
                break  # a line still being written
        out[pid] = rows
    return out
