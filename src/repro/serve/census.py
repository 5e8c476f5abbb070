"""The per-layer census of serving engines, built and merged in one place.

A census has two parts, both keyed by layer name:

* **densities** — the sensitive-output ratio, ``sensitive_total /
  outputs_total`` summed over the engines (layers with no outputs yet are
  absent);
* **exec census** — ``{"rows_total", "rows_computed", "path_calls"}``
  from the ``exec_*`` extras the ODQ executors record (see
  :meth:`repro.core.odq.ODQConvExecutor._note_run`): rows seen vs rows
  the chosen path computed, and how often each path (``dense``/
  ``sparse``) ran.  Layers that never ran an instrumented result step
  (non-ODQ schemes) are absent.

The thread pool (:class:`repro.serve.worker.WorkerPool`) builds one over
its worker engines after every batch; each replica process
(:mod:`repro.cluster.worker`) builds one over its engine, and the router
merges the replicas' answers with :func:`merge_census`.
"""

from __future__ import annotations

from typing import Iterable, Mapping


def _add(merged: dict, layer: str, rows_total, rows_computed,
         path_calls: Mapping) -> None:
    slot = merged.setdefault(
        layer, {"rows_total": 0, "rows_computed": 0, "path_calls": {}}
    )
    slot["rows_total"] += int(rows_total)
    slot["rows_computed"] += int(rows_computed)
    calls = slot["path_calls"]
    for path, n in path_calls.items():
        calls[path] = calls.get(path, 0) + int(n)


def layer_census(engines: Iterable) -> tuple[dict[str, float], dict[str, dict]]:
    """(densities, exec census) summed over ``engines``' layer records."""
    sens: dict[str, int] = {}
    outputs: dict[str, int] = {}
    census: dict[str, dict] = {}
    for engine in engines:
        for name, rec in engine.records.items():
            sens[name] = sens.get(name, 0) + rec.sensitive_total
            outputs[name] = outputs.get(name, 0) + rec.outputs_total
            extra = rec.extra
            if "exec_path_calls" in extra:
                _add(census, name, extra.get("exec_rows_total", 0),
                     extra.get("exec_rows_computed", 0),
                     extra["exec_path_calls"])
    densities = {name: sens[name] / outputs[name] for name in sens if outputs[name]}
    return densities, census


def merge_census(censuses: Iterable[dict]) -> dict[str, dict]:
    """Sum exec censuses (one per replica) layer by layer."""
    merged: dict[str, dict] = {}
    for census in censuses:
        for layer, c in census.items():
            _add(merged, layer, c["rows_total"], c["rows_computed"],
                 c["path_calls"])
    return merged


def census_rows(census: dict) -> tuple[int, int]:
    """(rows seen, rows computed) over every layer of an exec census."""
    total = sum(c["rows_total"] for c in census.values())
    computed = sum(c["rows_computed"] for c in census.values())
    return total, computed


def drift_samples(densities: dict[str, float], census: dict[str, dict]) -> dict[str, dict]:
    """Per-layer samples in the shape :meth:`DriftMonitor.observe` takes."""
    samples: dict[str, dict] = {
        name: {"sensitive_ratio": ratio} for name, ratio in densities.items()
    }
    for name, c in census.items():
        samples.setdefault(name, {}).update(
            rows_total=c["rows_total"],
            rows_computed=c["rows_computed"],
            path_calls=c["path_calls"],
        )
    return samples


__all__ = ["layer_census", "merge_census", "census_rows", "drift_samples"]
