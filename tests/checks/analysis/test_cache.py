"""Content-addressed summary cache: hits, invalidation, warm-run speed."""

import ast
import json
import time

from repro.checks import engine, run
from repro.checks.analysis import project as project_mod
from repro.checks.analysis.cache import SummaryCache, source_digest
from repro.checks.analysis.summary import SUMMARY_VERSION, summarize


SRC_A = "def f():\n    pass\n"
SRC_B = "def f():\n    return 1\n"


def summary_for(source, module="repro.demo.m", path="src/repro/demo/m.py"):
    return summarize(module, path, ast.parse(source))


class TestSummaryCache:
    def test_miss_then_hit(self, tmp_path):
        cache = SummaryCache(str(tmp_path / "cache"))
        assert cache.get(SRC_A) is None
        cache.put(SRC_A, summary_for(SRC_A))
        got = cache.get(SRC_A)
        assert got is not None
        assert got.module == "repro.demo.m"
        assert cache.stats() == {"hits": 1, "misses": 1}

    def test_content_addressed_by_source(self, tmp_path):
        cache = SummaryCache(str(tmp_path / "cache"))
        cache.put(SRC_A, summary_for(SRC_A))
        # A one-character edit is a different address: no stale summary.
        assert cache.get(SRC_B) is None
        assert source_digest(SRC_A) != source_digest(SRC_B)

    def test_version_bump_invalidates(self, tmp_path):
        cache = SummaryCache(str(tmp_path / "cache"))
        cache.put(SRC_A, summary_for(SRC_A))
        entry = next((tmp_path / "cache").glob("*.json"))
        doc = json.loads(entry.read_text())
        doc["version"] = SUMMARY_VERSION - 1
        entry.write_text(json.dumps(doc))
        assert cache.get(SRC_A) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = SummaryCache(str(tmp_path / "cache"))
        cache.put(SRC_A, summary_for(SRC_A))
        entry = next((tmp_path / "cache").glob("*.json"))
        entry.write_text("{not json")
        assert cache.get(SRC_A) is None


class TestWarmRuns:
    def _tree(self, tmp_path, n=12):
        pkg = tmp_path / "src" / "repro" / "demo"
        pkg.mkdir(parents=True)
        for i in range(n):
            (pkg / f"m{i}.py").write_text(
                f"def f{i}(x):\n    return x + {i}\n"
            )
        return str(tmp_path / "src")

    def _run(self, root, cache_dir):
        cache = SummaryCache(cache_dir)
        run([root], cache=cache)
        return cache.stats()

    def test_second_run_is_all_hits(self, tmp_path, monkeypatch):
        root = self._tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        cache_dir = str(tmp_path / ".repro-check-cache")
        first = self._run(root, cache_dir)
        assert first["misses"] > 0
        second = self._run(root, cache_dir)
        assert second["misses"] == 0
        assert second["hits"] == first["misses"]

    def test_editing_one_file_reparses_only_it(self, tmp_path, monkeypatch):
        root = self._tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        cache_dir = str(tmp_path / ".repro-check-cache")
        self._run(root, cache_dir)
        (tmp_path / "src" / "repro" / "demo" / "m0.py").write_text(
            "def f0(x):\n    return x - 1\n"
        )
        assert self._run(root, cache_dir)["misses"] == 1

    def test_warm_incremental_run_is_fast(self, tmp_path, monkeypatch):
        # The acceptance bar is <2s on the real tree; a small fixture
        # tree warm run must come in far under that.
        root = self._tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        cache_dir = str(tmp_path / ".repro-check-cache")
        self._run(root, cache_dir)
        t0 = time.perf_counter()
        stats = self._run(root, cache_dir)
        elapsed = time.perf_counter() - t0
        assert stats["misses"] == 0
        assert elapsed < 2.0

    def test_no_cache_dir_disables_caching(self, tmp_path, monkeypatch):
        root = self._tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        run([root])
        assert not (tmp_path / ".repro-check-cache").exists()

    def test_one_parse_per_file_cold_and_warm(self, tmp_path, monkeypatch):
        root = self._tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        parsed = []

        def counting(source, path="<string>"):
            parsed.append(path)
            return real(source, path)

        real = engine.make_context
        monkeypatch.setattr(engine, "make_context", counting)
        monkeypatch.setattr(project_mod, "make_context", counting)
        cache_dir = str(tmp_path / ".repro-check-cache")
        for expected_misses in (12, 0):  # cold, then warm
            parsed.clear()
            stats = self._run(root, cache_dir)
            assert stats["misses"] == expected_misses
            assert sorted(parsed) == sorted(set(parsed))
            assert len(parsed) == 12
