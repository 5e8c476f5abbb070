"""Content-addressed per-module summary cache.

Key = ``blake2b(source || analysis-version)``; value = the module's
:class:`~repro.checks.analysis.summary.ModuleSummary` as JSON under
``.repro-check-cache/``.  What a hit saves is summary *extraction*, not
parsing: every file is still parsed once per run, because the per-file
rules read its AST and suppression comments.  A warm ``repro check``
therefore costs one parse per file, a hash and a JSON load per summary,
and the graph phases.

The cache is safe to delete at any time and safe to share between
branches: keys are content hashes, so a stale entry can never be served
for edited source, and :data:`~repro.checks.analysis.summary.SUMMARY_VERSION`
participates in the key so extraction changes invalidate everything.
Writes go through a temp file + ``os.replace`` so a crashed run never
leaves a torn JSON behind.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.checks.analysis.summary import SUMMARY_VERSION, ModuleSummary

#: Default cache directory, relative to the working tree.
DEFAULT_CACHE_DIR = ".repro-check-cache"


def source_digest(source: str) -> str:
    """Stable content key for one module's source."""
    h = hashlib.blake2b(digest_size=16)
    h.update(f"repro-check-summary-v{SUMMARY_VERSION}:".encode())
    h.update(source.encode("utf-8"))
    return h.hexdigest()


class SummaryCache:
    """Load/store :class:`ModuleSummary` records by source digest."""

    def __init__(self, root: str | os.PathLike[str] = DEFAULT_CACHE_DIR):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def _path_for(self, digest: str) -> Path:
        return self.root / f"{digest}.json"

    def get(self, source: str) -> ModuleSummary | None:
        path = self._path_for(source_digest(source))
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.misses += 1
            return None
        if doc.get("version") != SUMMARY_VERSION:
            self.misses += 1
            return None
        try:
            summary = ModuleSummary.from_json(doc)
        except (KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return summary

    def put(self, source: str, summary: ModuleSummary) -> None:
        digest = source_digest(source)
        path = self._path_for(digest)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(
                json.dumps(summary.to_json(), separators=(",", ":")),
                encoding="utf-8",
            )
            os.replace(tmp, path)
        except OSError:
            # A read-only tree (sdist install, CI cache miss) only costs
            # the speedup, never correctness.
            pass

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}


__all__ = ["SummaryCache", "source_digest", "DEFAULT_CACHE_DIR"]
