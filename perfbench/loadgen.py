"""Open-loop HTTP load: a seeded arrival schedule over keep-alive connections.

Independent users arrive on a schedule whether or not the server keeps
up, so each request is timed from the moment it was *due*, and a stall
delays every request behind it.  One process sends, with one thread per
keep-alive connection (at most the usable core count); request ``i`` goes
out on the first free connection at or after its due time, in order.
The generator's own lateness (send time minus due time) is reported so
a saturated client is not mistaken for a slow server.

The client is the standard library's ``http.client``; it sends headers
and body of a request in one write.
"""

from __future__ import annotations

import http.client
import json
import math
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from common import p99_by_parts, percentile

#: Seconds a request may take before the client gives up (a failure).
REQUEST_TIMEOUT_S = 10.0


@dataclass
class Request:
    due: float           #: seconds after the phase starts
    images: tuple        #: pool indices, one per image
    body: bytes


@dataclass
class Outcome:
    images: tuple = ()   #: pool indices sent
    req_bytes: int = 0
    due: float = 0.0     #: absolute ``perf_counter`` times
    sent: float = 0.0
    done: float = 0.0
    ok: bool = False
    error: str = ""
    server_ms: float = math.nan
    predictions: list = field(default_factory=list)
    logits: list = field(default_factory=list)

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    @property
    def rtt_ms(self) -> float:
        return (self.done - self.sent) * 1000.0


def schedule(timing: np.random.Generator, images: np.random.Generator,
             rate: float, seconds: float, multi_frac: float, pool: int,
             sessions: int) -> list[tuple]:
    """``(due, images, session)`` rows for one phase.

    ``timing`` draws the arrival pattern: inter-arrival gaps are the
    exponential distribution's quantiles at evenly spaced probabilities,
    shuffled -- a Poisson-like open loop whose offered rate is exactly
    ``rate``.  A fixed share ``multi_frac`` of requests carries 2-8 images
    (sizes cycling evenly), the rest one image, at shuffled positions,
    each from one of ``sessions`` clients.  ``images`` picks the pool
    image of every slot.
    """
    n = max(1, round(rate * seconds))
    probs = (np.arange(n) + 0.5) / n
    gaps = -np.log1p(-probs) / rate
    timing.shuffle(gaps)
    dues = np.cumsum(gaps) - gaps[0]
    n_multi = round(multi_frac * n)
    sizes = np.ones(n, dtype=int)
    sizes[:n_multi] = 2 + np.arange(n_multi) % 7
    timing.shuffle(sizes)
    rows = []
    for due, size in zip(dues, sizes):
        session = f"client-{int(timing.integers(0, sessions))}" if sessions else None
        picks = tuple(int(i) for i in images.integers(0, pool, size=int(size)))
        rows.append((float(due), picks, session))
    return rows


def encode(rows, fragments: list[str]) -> list[Request]:
    """Pre-encode request bodies (outside any timed window)."""
    out = []
    for due, images, session in rows:
        parts = ['{"inputs": [', ",".join(fragments[i] for i in images),
                 '], "return_logits": true']
        if session is not None:
            parts.append(f', "session": {json.dumps(session)}')
        parts.append("}")
        out.append(Request(due, images, "".join(parts).encode()))
    return out


def post(conn: http.client.HTTPConnection, body: bytes) -> tuple[int, bytes]:
    conn.request("POST", "/predict", body, {"Content-Type": "application/json"})
    resp = conn.getresponse()
    return resp.status, resp.read()


def check(status: int, raw: bytes, n: int, out: Outcome) -> None:
    """Fill ``out`` from one response; a malformed one is a failure."""
    if status != 200:
        out.error = f"http {status}"
        return
    try:
        payload = json.loads(raw)
        preds = payload["predictions"]
        logits = payload["logits"]
        server_ms = float(payload["latency_ms"])
    except (ValueError, KeyError, TypeError):
        out.error = "bad body"
        return
    if len(preds) != n or len(logits) != n:
        out.error = "wrong length"
        return
    out.ok, out.server_ms = True, server_ms
    out.predictions, out.logits = preds, logits


def run(host: str, port: int, requests: list[Request], connections: int,
        abort_late_s: float | None = None) -> tuple[list[Outcome], float]:
    """Send ``requests`` on schedule; returns outcomes and the start time.

    With ``abort_late_s`` the phase stops sending once the generator runs
    that far behind schedule (the backlog is growing without bound);
    requests never sent are dropped from the outcomes, since they were
    never attempted.
    """
    outcomes: list[Outcome | None] = [None] * len(requests)
    lock = threading.Lock()
    cursor = [0]
    stop = threading.Event()
    start = time.perf_counter() + 0.05

    def worker() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
        try:
            while not stop.is_set():
                with lock:
                    i = cursor[0]
                    if i >= len(requests):
                        return
                    cursor[0] = i + 1
                req = requests[i]
                due = start + req.due
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                out = Outcome(images=req.images, req_bytes=len(req.body),
                              due=due, sent=time.perf_counter())
                if abort_late_s is not None and out.sent - due > abort_late_s:
                    stop.set()
                    return
                try:
                    status, raw = post(conn, req.body)
                    out.done = time.perf_counter()
                    check(status, raw, len(req.images), out)
                except (OSError, http.client.HTTPException) as exc:
                    out.done = time.perf_counter()
                    out.error = type(exc).__name__
                    conn.close()
                    conn = http.client.HTTPConnection(
                        host, port, timeout=REQUEST_TIMEOUT_S)
                outcomes[i] = out
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return [o for o in outcomes if o is not None], start


def summarize(segments: list[tuple[list[Outcome], float]], offered_rps: float) -> dict:
    """Latency from due time (failures miss every limit), lateness and
    rates over one or more ``(outcomes, start)`` segments of a window."""
    outcomes = [o for outs, _start in segments for o in outs]
    ok = [o for o in outcomes if o.ok]
    lat = sorted(o.latency_ms for o in ok)
    in_order = [o.latency_ms for o in sorted(ok, key=lambda o: o.due)]
    missed = len(outcomes) - len(ok)
    # Failures count as infinitely late for the tail check.
    tail = lat + [math.inf] * missed
    late = [(o.sent - o.due) * 1000.0 for o in outcomes]
    by_due = sorted(outcomes, key=lambda o: o.due)
    last = by_due[len(by_due) * 3 // 4:]
    last_lat = [o.latency_ms if o.ok else math.inf for o in last]
    span = sum(max((o.done for o in outs), default=start) - start
               for outs, start in segments)
    return {
        "attempted": len(outcomes),
        "failed": missed,
        "p50_ms": percentile(lat, 50),
        "p99_ms": p99_by_parts(in_order),
        "p99_all_ms": percentile(lat, 99),
        "p99_with_failures_ms": percentile(tail, 99),
        "samples": len(lat),
        "lateness_p99_ms": percentile(late, 99),
        "tail_p50_ms": percentile(last_lat, 50) if last_lat else math.inf,
        "offered_rps": offered_rps,
        "achieved_rps": len(ok) / span if span > 0 else 0.0,
        "images_per_s": sum(len(o.images) for o in ok) / span if span > 0 else 0.0,
    }
