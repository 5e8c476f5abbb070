"""SARIF 2.1.0 emitter shape (the subset GitHub code scanning reads)."""

import json

from repro.checks.findings import Finding, Severity
from repro.checks.sarif import render_sarif


def sample_finding():
    return Finding(
        rule="THR210",
        severity=Severity.ERROR,
        path="src/repro/demo/state.py",
        line=14,
        col=4,
        message="shared mutable written without a common lock",
    )


class TestSarifShape:
    def test_top_level_envelope(self):
        doc = json.loads(render_sarif([sample_finding()], scanned=1))
        assert doc["version"] == "2.1.0"
        assert "sarif-2.1.0" in doc["$schema"]
        assert len(doc["runs"]) == 1

    def test_driver_carries_full_rule_registry(self):
        doc = json.loads(render_sarif([], scanned=0))
        rules = doc["runs"][0]["tool"]["driver"]["rules"]
        ids = {r["id"] for r in rules}
        # Whole-program and per-file rules both present, with metadata.
        assert {"THR210", "THR211", "DTY110", "THR201", "DTY101"} <= ids
        by_id = {r["id"]: r for r in rules}
        assert by_id["THR210"]["properties"]["scope"] == "program"
        assert by_id["THR201"]["properties"]["scope"] == "file"
        assert by_id["THR210"]["defaultConfiguration"]["level"] == "error"
        assert by_id["THR210"]["fullDescription"]["text"]

    def test_result_location_and_level(self):
        doc = json.loads(render_sarif([sample_finding()], scanned=1))
        results = doc["runs"][0]["results"]
        assert len(results) == 1
        r = results[0]
        assert r["ruleId"] == "THR210"
        assert r["level"] == "error"
        loc = r["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "src/repro/demo/state.py"
        assert loc["artifactLocation"]["uriBaseId"] == "%SRCROOT%"
        assert loc["region"]["startLine"] == 14
        assert loc["region"]["startColumn"] == 5  # 1-based in SARIF

    def test_rule_index_points_into_driver_rules(self):
        doc = json.loads(render_sarif([sample_finding()], scanned=1))
        run = doc["runs"][0]
        r = run["results"][0]
        assert run["tool"]["driver"]["rules"][r["ruleIndex"]]["id"] == "THR210"

    def test_unregistered_meta_rule_still_emits(self):
        f = Finding(
            rule="PARSE000", severity=Severity.ERROR,
            path="src/bad.py", line=1, col=0, message="could not parse",
        )
        doc = json.loads(render_sarif([f], scanned=1))
        r = doc["runs"][0]["results"][0]
        assert r["ruleId"] == "PARSE000"
        assert "ruleIndex" not in r

    def test_empty_findings_valid_run(self):
        doc = json.loads(render_sarif([], scanned=42))
        run = doc["runs"][0]
        assert run["results"] == []
        assert run["properties"]["scannedFiles"] == 42
