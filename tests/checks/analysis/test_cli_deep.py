"""CLI behaviour of the one engine: whole-program rules, --format sarif,
and the --changed fallback."""

import json
import shutil
import subprocess

import pytest

from repro.checks.cli import main as check_main


RACY = """
import threading

_lock = threading.Lock()
_counter = 0


def locked_bump():
    global _counter
    with _lock:
        _counter += 1


def unlocked_bump():
    global _counter
    _counter += 1


def start():
    threading.Thread(target=locked_bump).start()
    threading.Thread(target=unlocked_bump).start()
"""

CLEAN = """
import threading

_lock = threading.Lock()
_counter = 0


def bump():
    global _counter
    with _lock:
        _counter += 1


def start():
    threading.Thread(target=bump).start()
    threading.Thread(target=bump).start()
"""


@pytest.fixture
def tree(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    pkg = tmp_path / "src" / "repro" / "demo"
    pkg.mkdir(parents=True)
    return pkg


BITPLANE_DIVISION = """
def dequant(cols_low, n):
    return cols_low / n
"""

PGEMM_LEAK = """
import numpy as np

from repro.core.gemm import pgemm


def prep(x):
    q = quantize_tensor(x)
    return q.astype(np.float32)


def run(x, w):
    return pgemm(prep(x), w)
"""


def _rules_reported(capsys) -> set:
    doc = json.loads(capsys.readouterr().out)
    return {f["rule"] for f in doc["findings"]}


class TestDeepFlag:
    def test_race_is_reported(self, tree, capsys):
        (tree / "state.py").write_text(RACY)
        assert check_main(["src", "--no-cache"]) == 1
        assert "THR210" in capsys.readouterr().out

    def test_deep_clean_exits_zero(self, tree, capsys):
        (tree / "state.py").write_text(CLEAN)
        assert check_main(["src", "--no-cache"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_deep_rule_selection(self, tree, capsys):
        (tree / "state.py").write_text(RACY)
        assert check_main(["src", "--no-cache", "--rules", "THR211"]) == 0
        capsys.readouterr()
        assert check_main(["src", "--no-cache", "--rules", "THR210"]) == 1

    def test_deep_writes_cache_dir(self, tree, tmp_path, capsys):
        (tree / "state.py").write_text(CLEAN)
        cache = tmp_path / "custom-cache"
        assert check_main(["src", "--cache-dir", str(cache)]) == 0
        assert any(cache.iterdir())

    def test_dty103_bitplane_division_exits_one(self, tree, capsys):
        # The per-file name heuristic runs next to DTY110: a division
        # on a bit-plane-named array is reported without any pgemm sink.
        (tree / "dequant.py").write_text(BITPLANE_DIVISION)
        assert check_main(["src", "--no-cache", "--format", "json"]) == 1
        assert "DTY103" in _rules_reported(capsys)

    def test_dty110_leak_into_pgemm_exits_one(self, tree, capsys):
        (tree / "leak.py").write_text(PGEMM_LEAK)
        assert check_main(["src", "--no-cache", "--format", "json"]) == 1
        assert "DTY110" in _rules_reported(capsys)


class TestSarifFormat:
    def test_sarif_output_parses(self, tree, capsys):
        (tree / "state.py").write_text(RACY)
        rc = check_main(["src", "--no-cache", "--format", "sarif"])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        results = doc["runs"][0]["results"]
        assert any(r["ruleId"] == "THR210" for r in results)

    def test_sarif_clean_run(self, tree, capsys):
        (tree / "state.py").write_text(CLEAN)
        rc = check_main(["src", "--no-cache", "--format", "sarif"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"] == []


class TestChangedFallback:
    def test_changed_outside_git_falls_back_to_full_scan(self, tree, capsys):
        # tmp_path is not a git work-tree: --changed must warn and scan
        # everything rather than crash (regression for the RuntimeError).
        (tree / "state.py").write_text(RACY)
        rc = check_main(["src", "--changed"])
        captured = capsys.readouterr()
        assert rc == 1  # the full scan includes the whole-program THR210
        assert "falling back to a full scan" in captured.err
        assert "108" not in captured.out  # scanned the fixture tree, not src/

    def test_changed_deep_outside_git_still_runs_deep(self, tree, capsys):
        (tree / "state.py").write_text(RACY)
        rc = check_main(["src", "--changed", "--no-cache"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "THR210" in captured.out
        assert "falling back" in captured.err


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
class TestChangedInGit:
    def test_file_rules_on_changed_program_rules_on_all(self, tree, tmp_path, capsys):
        (tree / "state.py").write_text(RACY)
        (tree / "old.py").write_text("print('committed')\n")

        def git(*args):
            subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@t",
                 "-c", "commit.gpgsign=false", *args],
                cwd=tmp_path, check=True, capture_output=True,
            )

        git("init", "-q")
        git("add", "-A")
        git("commit", "-q", "-m", "seed")
        (tree / "new.py").write_text("print('untracked')\n")
        rc = check_main(["src", "--changed", "--no-cache", "--format", "json"])
        assert rc == 1
        found = {
            (f["rule"], f["path"].rsplit("/", 1)[-1])
            for f in json.loads(capsys.readouterr().out)["findings"]
        }
        # Per-file rules see only the untracked file; THR210 still sees
        # the unchanged racy module through the whole-program pass.
        assert ("OBS301", "new.py") in found
        assert ("OBS301", "old.py") not in found
        assert ("THR210", "state.py") in found
