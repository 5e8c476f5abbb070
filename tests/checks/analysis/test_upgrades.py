"""Call-graph facts the per-file THR201/THR203 rules consult.

THR201 (unlocked mutation) stays quiet when the mutating function's
must-hold entry lockset proves a caller always holds the lock; THR203
(pool without fork guard) stays quiet when a transitive caller carries
the ``os.getpid()`` probe.  Each upgrade has a negative twin proving the
finding survives when the call-graph fact is absent.
"""

import textwrap

import pytest

from repro import checks


@pytest.fixture
def tree(tmp_path):
    pkg = tmp_path / "src" / "repro" / "demo"
    pkg.mkdir(parents=True)
    return pkg


def _scan(tree, source: str) -> list:
    (tree / "mod.py").write_text(textwrap.dedent(source))
    return checks.run([str(tree)])


def rules_of(findings) -> list[str]:
    return [f.rule for f in findings]


class TestThr201Upgrade:
    def test_helper_locked_by_every_caller_is_dropped(self, tree):
        findings = _scan(tree, """
        import threading

        _lock = threading.Lock()
        _stats = {}


        def _bump(key):
            _stats[key] = _stats.get(key, 0) + 1


        def record(key):
            with _lock:
                _bump(key)


        def record_pair(a, b):
            with _lock:
                _bump(a)
                _bump(b)
        """)
        assert "THR201" not in rules_of(findings)

    def test_one_unlocked_caller_keeps_the_finding(self, tree):
        findings = _scan(tree, """
        import threading

        _lock = threading.Lock()
        _stats = {}


        def _bump(key):
            _stats[key] = _stats.get(key, 0) + 1


        def record(key):
            with _lock:
                _bump(key)


        def record_fast(key):
            _bump(key)
        """)
        assert "THR201" in rules_of(findings)

    def test_public_helper_keeps_the_finding(self, tree):
        # Public names are pinned to an empty entry lockset — callers
        # outside the analyzed tree may reach them unlocked.
        findings = _scan(tree, """
        import threading

        _lock = threading.Lock()
        _stats = {}


        def bump(key):
            _stats[key] = _stats.get(key, 0) + 1


        def record(key):
            with _lock:
                bump(key)
        """)
        assert "THR201" in rules_of(findings)


class TestThr203Upgrade:
    def test_caller_with_getpid_guard_is_dropped(self, tree):
        findings = _scan(tree, """
        import os
        from concurrent.futures import ThreadPoolExecutor

        _POOL = None
        _POOL_PID = None


        def _make_pool():
            global _POOL
            _POOL = ThreadPoolExecutor(max_workers=4)
            return _POOL


        def get_pool():
            global _POOL_PID
            if _POOL is None or _POOL_PID != os.getpid():
                _POOL_PID = os.getpid()
                return _make_pool()
            return _POOL
        """)
        assert "THR203" not in rules_of(findings)

    def test_guard_in_calling_module_is_dropped(self):
        # The pool module itself has no getpid probe; its only caller,
        # in another module, carries the guard.
        pool = textwrap.dedent("""
        from concurrent.futures import ThreadPoolExecutor

        _POOL = None


        def _make_pool():
            global _POOL
            _POOL = ThreadPoolExecutor(max_workers=4)
            return _POOL
        """)
        guard = textwrap.dedent("""
        import os

        from repro.demo.pool import _make_pool

        _PID = None


        def get_pool():
            global _PID
            if _PID != os.getpid():
                _PID = os.getpid()
                return _make_pool()
        """)
        sources = {
            "src/repro/demo/pool.py": pool,
            "src/repro/demo/guard.py": guard,
        }
        assert "THR203" not in rules_of(checks.run_sources(sources))
        alone = {"src/repro/demo/pool.py": pool}
        assert "THR203" in rules_of(checks.run_sources(alone))

    def test_no_guard_anywhere_keeps_the_finding(self, tree):
        findings = _scan(tree, """
        from concurrent.futures import ThreadPoolExecutor

        _POOL = None


        def _make_pool():
            global _POOL
            _POOL = ThreadPoolExecutor(max_workers=4)
            return _POOL


        def get_pool():
            if _POOL is None:
                return _make_pool()
            return _POOL
        """)
        assert "THR203" in rules_of(findings)
