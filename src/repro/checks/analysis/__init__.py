"""Whole-program analysis for :mod:`repro.checks`.

The ``file`` rules in :mod:`repro.checks.rules` are syntactic — one AST
at a time.  This subpackage adds the project-wide view the engine builds
once per ``repro check`` run, for rules that are *about* cross-function
behavior (and for the THR201/THR203 caller checks):

* :mod:`~repro.checks.analysis.summary` — per-module function summaries
  (writes, lock acquisitions, call sites, dtype bases), the only thing
  retained after parsing a module;
* :mod:`~repro.checks.analysis.cache` — content-addressed summary cache
  (blake2b of source) so warm runs skip summary extraction;
* :mod:`~repro.checks.analysis.project` — symbol table + import/method
  resolution over the summaries;
* :mod:`~repro.checks.analysis.callgraph` — call edges, thread-root
  discovery, reachability, must-hold entry locksets;
* :mod:`~repro.checks.analysis.lockset` — Eraser-style lockset reports
  (THR210) and static lock-order-inversion detection (THR211);
* :mod:`~repro.checks.analysis.dtypeflow` — the dtype-exactness lattice
  behind DTY110.
"""

from repro.checks.analysis.cache import DEFAULT_CACHE_DIR, SummaryCache
from repro.checks.analysis.callgraph import CallGraph
from repro.checks.analysis.project import Project

__all__ = [
    "DEFAULT_CACHE_DIR",
    "SummaryCache",
    "CallGraph",
    "Project",
]
