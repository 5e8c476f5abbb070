"""Replica sizing and chunk placement (pure functions).

Two decisions live here, both deliberately free of I/O so they are unit
testable and auditable:

* **How many replicas should this box run?**
  :func:`recommended_replicas` derives the default from
  ``os.sched_getaffinity`` (the *usable* cores — containers routinely
  restrict the affinity mask well below ``os.cpu_count()``), and
  :func:`autoscale_hint` nudges it using the observed per-replica busy
  fractions the shared stats block exposes.
* **Which replica should run this chunk?**  :func:`place_chunks` does
  greedy longest-processing-time placement onto the replica with the
  fewest outstanding (queued + in-flight) images.  Images are the whole
  signal: an ODQ image's cost does scale with the sensitive-row ratio,
  but the router only knows one cluster-wide ratio, and scaling every
  load by the same positive factor cannot change which replica is least
  loaded.

Chunk *boundaries* are none of this module's business: the router cuts
deterministic fixed-size chunks (see ``router.py`` — ODQ quantization
ranges are computed per inference batch, so batch composition is part
of the numerical contract and must not depend on replica count or
load).  Only *placement* is load-dependent.
"""

from __future__ import annotations

import os

#: Cap on the derived replica default — past this the per-replica
#: session builds and shared-memory arenas cost more than the extra
#: processes return on the GEMM sizes this repo serves.
MAX_DEFAULT_REPLICAS = 8


def usable_cores() -> int:
    """Cores this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def recommended_replicas(cores: int | None = None) -> int:
    """Default replica count for ``--replicas auto``: one per usable core.

    Engine replicas are process-parallel (no GIL sharing), so the right
    default is the affinity-mask size, capped at
    :data:`MAX_DEFAULT_REPLICAS`; a 1-core box gets 1 replica (the
    in-process thread pool path) rather than paying transport overhead
    for no parallelism.
    """
    cores = usable_cores() if cores is None else int(cores)
    return max(1, min(cores, MAX_DEFAULT_REPLICAS))


def autoscale_hint(busy_fractions: list[float], replicas: int,
                   cores: int | None = None) -> int:
    """Suggested replica count given observed worker-busy fractions.

    Saturated replicas (mean busy fraction above 0.75) suggest growing
    while cores remain; mostly-idle ones (below 0.25) suggest shrinking.
    Returns a count in ``[1, usable_cores]`` — advisory only, surfaced
    by the bench and ``/healthz``, never applied automatically.
    """
    cores = usable_cores() if cores is None else int(cores)
    if not busy_fractions:
        return replicas
    mean_busy = sum(busy_fractions) / max(1, len(busy_fractions))
    if mean_busy > 0.75 and replicas < cores:
        return min(cores, replicas + 1)
    if mean_busy < 0.25 and replicas > 1:
        return replicas - 1
    return replicas


def place_chunks(
    chunk_images: list[int],
    replica_images: list[int],
) -> list[int]:
    """Assign each chunk to a replica, equalizing outstanding images.

    ``chunk_images[i]`` is the image count of chunk *i*;
    ``replica_images[r]`` the images replica *r* already has queued or
    in flight.  Greedy LPT: place chunks largest-first onto the replica
    with the fewest images; ties break on the lower replica id so
    placement is deterministic.  Returns the replica index per chunk,
    in the original chunk order.
    """
    if not replica_images:
        raise ValueError("no replicas to place onto")
    loads = list(replica_images)
    order = sorted(
        range(len(chunk_images)), key=lambda i: (-chunk_images[i], i)
    )
    assignment = [0] * len(chunk_images)
    for i in order:
        target = min(range(len(loads)), key=lambda r: (loads[r], r))
        assignment[i] = target
        loads[target] += chunk_images[i]
    return assignment


__all__ = [
    "MAX_DEFAULT_REPLICAS",
    "usable_cores",
    "recommended_replicas",
    "autoscale_hint",
    "place_chunks",
]
