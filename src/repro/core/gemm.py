"""The one counted GEMM funnel: :func:`pgemm` is ``a @ b``.

Every inference path in this repo — dense conv, the ODQ sparse fast
path, the QAT backward, float conv — bottoms out in a single GEMM, and
every one of them calls :func:`pgemm`, which runs the product on its
caller's thread and counts the call.  Routing all GEMMs through one
function keeps them in one place the analyzer can see (DTY101 flags a
bare ``@`` elsewhere; DTY110 treats ``pgemm`` as the sink whose operands
must be exact) and gives :func:`stats` a process-wide call count.

There is no intra-op thread pool.  Parallelism comes from replica
processes (:mod:`repro.cluster`).  A row-blocked pool was measured on
two cores and deleted: it never ran on the LeNet serving workloads,
bought about 7% on offline ResNet-20, and stacked on serve workers and
replicas it oversubscribed the cores (see ``docs/performance.md``).
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass

import numpy as np


@dataclass
class GemmStats:
    """Advisory process-wide counters (exact under single-threaded use)."""

    calls: int = 0  #: total pgemm() invocations
    #: ``pooled_calls`` and ``planned_calls`` always read 0; they are
    #: kept only for the benchmark's ledger (``perfbench/``).
    pooled_calls: int = 0
    planned_calls: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


_state_lock = threading.Lock()
_stats = GemmStats()


def gemm_threads() -> int:
    """Always 1 (GEMMs run on the caller's thread).

    Kept only for the benchmark (``perfbench/``), which logs it.
    """
    return 1


def configure(threads: int | None = None, min_flops: float | None = None) -> None:
    """Accept the benchmark's ``configure(threads=1, min_flops=math.inf)``.

    Kept only for the benchmark (``perfbench/``), which pinned the
    retired pool off before counting GEMMs.  ``min_flops`` has no
    effect; any thread count other than 1 raises ``ValueError``.
    """
    if threads is not None and threads != 1:
        raise ValueError(
            f"GEMMs run on the caller's thread: threads must be 1, got {threads}"
        )


def stats() -> GemmStats:
    """A copy of the process-wide call counters."""
    with _state_lock:
        return GemmStats(**_stats.as_dict())


def reset_stats() -> None:
    global _stats
    with _state_lock:
        _stats = GemmStats()


def pgemm(
    a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``a @ b`` (into ``out`` when given), counted in :func:`stats`."""
    with _state_lock:
        _stats.calls += 1
    if out is None:
        return a @ b
    return np.matmul(a, b, out=out)


__all__ = [
    "pgemm",
    "configure",
    "gemm_threads",
    "GemmStats",
    "stats",
    "reset_stats",
]
