"""Engine worker pool: N threads, one thread-confined engine each.

Each worker owns a clone of the session's calibrated
:class:`~repro.core.pipeline.QuantizedInferenceEngine` (engines are
reusable but deliberately not thread-parallel — see the engine docstring)
and loops: pull a coalesced :class:`~repro.serve.batcher.MicroBatch`,
run ``engine.infer``, split results back to the request futures, and
record metrics (batch size, queue wait, inference latency, per-layer
sensitivity densities).

Shutdown is graceful: the pool closes the batcher (failing queued
requests), then joins every thread with a bounded timeout.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.core.pipeline import QuantizedInferenceEngine
from repro.obs import trace
from repro.obs.log import get_logger
from repro.serve.batcher import MicroBatcher
from repro.serve.census import drift_samples, layer_census
from repro.serve.metrics import MetricsRegistry
from repro.serve.session import ModelSession

_log = get_logger("repro.serve.worker")


@dataclass
class WorkerStats:
    """Per-worker counters (updated only by the owning thread)."""

    name: str
    batches: int = 0
    images: int = 0
    errors: int = 0
    busy_seconds: float = 0.0
    last_batch_at: float | None = None

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "batches": self.batches,
            "images": self.images,
            "errors": self.errors,
            "busy_seconds": round(self.busy_seconds, 4),
        }


@dataclass
class _Worker:
    thread: threading.Thread
    engine: QuantizedInferenceEngine
    stats: WorkerStats = field(init=False)

    def __post_init__(self):
        self.stats = WorkerStats(name=self.thread.name)


class WorkerPool:
    """Runs N engine workers against one micro-batcher.

    Parameters
    ----------
    session:
        The built :class:`~repro.serve.session.ModelSession`; provides the
        primary engine and per-worker clones.
    batcher:
        The shared request queue.
    metrics:
        Registry receiving ``requests_total`` / ``images_total`` /
        ``batch_size`` / ``queue_wait_ms`` / ``infer_ms`` and the
        per-layer ``sensitive_ratio:<layer>`` gauges.
    num_workers:
        Worker thread count (each confines its own engine clone).
    drift:
        Optional :class:`~repro.obs.drift.DriftMonitor` fed the same
        per-layer samples the gauges publish (the thread-pool analogue
        of the cluster telemetry channel).
    """

    POLL_SECONDS = 0.05  #: batcher poll period, bounds shutdown latency

    def __init__(
        self,
        session: ModelSession,
        batcher: MicroBatcher,
        metrics: MetricsRegistry | None = None,
        num_workers: int = 2,
        drift=None,
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.session = session
        self.batcher = batcher
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.drift = drift
        self._stop = threading.Event()
        self._started = False
        engines = session.engines_for_workers(num_workers)
        self._workers = [
            _Worker(
                thread=threading.Thread(
                    target=self._run, args=(i,), name=f"serve-worker-{i}", daemon=True
                ),
                engine=engines[i],
            )
            for i in range(num_workers)
        ]

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "WorkerPool":
        if self._started:
            raise RuntimeError("worker pool already started")
        self._started = True
        for w in self._workers:
            w.thread.start()
        return self

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop accepting work, fail queued requests, join all threads."""
        self._stop.set()
        self.batcher.shutdown()
        for w in self._workers:
            if w.thread.is_alive():
                w.thread.join(timeout)

    @property
    def alive_workers(self) -> int:
        return sum(1 for w in self._workers if w.thread.is_alive())

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- the worker loop ----------------------------------------------------

    def _run(self, index: int) -> None:
        worker = self._workers[index]
        engine, stats = worker.engine, worker.stats
        m = self.metrics
        requests_total = m.counter("requests_total", "requests completed")
        images_total = m.counter("images_total", "images inferred")
        errors_total = m.counter("errors_total", "failed batches")
        batch_hist = m.histogram("batch_size", "images per dispatched micro-batch")
        wait_hist = m.histogram("queue_wait_ms", "request time in queue")
        infer_hist = m.histogram("infer_ms", "engine latency per micro-batch")

        while not self._stop.is_set():
            batch = self.batcher.next_batch(timeout=self.POLL_SECONDS)
            if batch is None:
                if self.batcher.closed:
                    break
                continue
            t0 = time.perf_counter()
            ctxs = batch.trace_contexts()
            try:
                # Span nesting (same thread): serve.batch → engine.infer
                # → engine.layer → odq.* phases.  A coalesced batch can
                # carry several request contexts: the span parents under
                # the first and lists the rest by trace id.
                with trace.get_tracer().activate(
                    ctxs[0] if ctxs else None
                ), trace.span(
                    "serve.batch", worker=stats.name, batch=batch.size
                ) as sp:
                    if len(ctxs) > 1:
                        sp.set(
                            extra_trace_ids=[c.trace_id for c in ctxs[1:]]
                        )
                    outputs = engine.infer(batch.stack())
                    sp.add("requests", len(batch.requests))
            except BaseException as exc:  # noqa: BLE001 — forwarded to futures
                stats.errors += 1
                errors_total.inc()
                batch.fail(exc)
                _log.warning(
                    "batch_failed",
                    worker=stats.name,
                    batch=batch.size,
                    error=f"{type(exc).__name__}: {exc}",
                )
                continue
            elapsed = time.perf_counter() - t0
            batch.complete(outputs)

            stats.batches += 1
            stats.images += batch.size
            stats.busy_seconds += elapsed
            stats.last_batch_at = time.time()
            requests_total.inc(len(batch.requests))
            images_total.inc(batch.size)
            batch_hist.observe(batch.size)
            infer_hist.observe(elapsed * 1000.0)
            for wait in batch.queue_waits():
                wait_hist.observe(wait * 1000.0)
            self._publish_layer_densities(m)

    def _publish_layer_densities(self, m: MetricsRegistry) -> None:
        """Publish the census over all worker engines (gauges + drift)."""
        densities, exec_census = layer_census(w.engine for w in self._workers)
        for name, density in densities.items():
            m.gauge(
                f"sensitive_ratio:{name}",
                "per-layer sensitive-output ratio across worker engines",
            ).set(density)
        for name, census in exec_census.items():
            m.gauge(
                f"exec_rows_total:{name}",
                "rows seen by the layer's result-generation dispatch",
            ).set(census["rows_total"])
            m.gauge(
                f"exec_rows_computed:{name}",
                "rows actually computed by the chosen exec path",
            ).set(census["rows_computed"])
            for path, calls in census["path_calls"].items():
                m.gauge(
                    f"exec_path_calls_{path}:{name}",
                    f"dispatches of the {path} result-generation path",
                ).set(calls)
        if self.drift is not None:
            self.drift.observe(drift_samples(densities, exec_census))

    # -- introspection ------------------------------------------------------

    def exec_census(self) -> dict[str, dict]:
        """Per-layer result-generation dispatch census over all workers
        (see :mod:`repro.serve.census`)."""
        return layer_census(w.engine for w in self._workers)[1]

    def stats(self) -> list[dict]:
        return [w.stats.as_dict() for w in self._workers]


__all__ = ["WorkerPool", "WorkerStats"]
