"""SARIF 2.1.0 emission for ``repro check --format sarif``.

Targets the subset GitHub code scanning consumes: one run, one tool
driver carrying the full rule registry (so every rule — per-file or
whole-program — shows up in the code-scanning rule list even before it
first fires),
and one ``result`` per finding with a ``physicalLocation`` anchored at
the finding's line/column.

Paths are emitted repo-relative POSIX with ``uriBaseId: %SRCROOT%`` so
the upload action can map them onto the checkout regardless of where the
scan ran.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from repro.checks.findings import Finding, Severity
from repro.checks.registry import iter_rules

SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
SARIF_VERSION = "2.1.0"
TOOL_NAME = "repro-check"

_LEVEL = {Severity.ERROR: "error", Severity.WARNING: "warning"}


def _rule_descriptor(rule) -> dict:
    summary = rule.summary
    if rule.scope == "program":
        summary = f"{summary} [whole-program]"
    return {
        "id": rule.id,
        "name": rule.id,
        "shortDescription": {"text": summary},
        "fullDescription": {"text": rule.invariant},
        "defaultConfiguration": {
            "level": _LEVEL.get(rule.severity, "note"),
        },
        "properties": {
            "family": rule.family,
            "scope": rule.scope,
        },
    }


def _uri(path: str) -> str:
    """Repo-relative POSIX path for the artifact location."""
    p = Path(path)
    try:
        p = p.resolve().relative_to(Path.cwd())
    except ValueError:
        pass
    return p.as_posix()


def _result(f: Finding, rule_index: dict[str, int]) -> dict:
    region: dict = {"startLine": max(f.line, 1)}
    if f.col:
        region["startColumn"] = f.col + 1  # SARIF columns are 1-based
    out: dict = {
        "ruleId": f.rule,
        "level": _LEVEL.get(f.severity, "note"),
        "message": {"text": f.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": _uri(f.path),
                        "uriBaseId": "%SRCROOT%",
                    },
                    "region": region,
                }
            }
        ],
    }
    if f.rule in rule_index:
        out["ruleIndex"] = rule_index[f.rule]
    return out


def render_sarif(findings: Sequence[Finding], scanned: int) -> str:
    """Serialize ``findings`` as a SARIF 2.1.0 log (one run)."""
    rules = list(iter_rules())
    rule_index = {r.id: i for i, r in enumerate(rules)}
    doc = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "rules": [_rule_descriptor(r) for r in rules],
                    }
                },
                "properties": {"scannedFiles": scanned},
                "results": [_result(f, rule_index) for f in findings],
            }
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=False)


__all__ = ["render_sarif", "SARIF_VERSION", "TOOL_NAME"]
