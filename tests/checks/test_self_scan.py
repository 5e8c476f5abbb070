"""The analyzer's strongest regression test: the repo itself is clean.

Every invariant rule runs over the installed ``repro`` package; any new
unguarded reduction, unrouted GEMM, unlocked module mutation, bare
print(), race, lock-order inversion or exactness leak introduced by a
future change fails this test — the same signal the CI ``lint`` job and
the pre-commit hook enforce at the edges.
"""

from pathlib import Path

import repro
from repro import checks
from repro.checks.analysis.cache import SummaryCache
from repro.checks.engine import SUP001, make_context

SRC = Path(repro.__file__).parent


def test_source_tree_is_clean():
    findings = checks.run([str(SRC)])
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"repro check found violations:\n{rendered}"


def test_every_suppression_in_tree_is_justified():
    """Policy audit: no file carries a justification-less noqa."""
    for path in sorted(SRC.rglob("*.py")):
        ctx = make_context(path.read_text(encoding="utf-8"), str(path))
        assert not ctx.bad_suppressions, (
            f"{path}: noqa without justification at "
            f"line(s) {[s.line for s in ctx.bad_suppressions]}"
        )


def test_sup001_meta_rule_cannot_be_suppressed():
    # A malformed noqa cannot silence itself, even naming SUP001.
    findings = checks.run_source(
        "a = b @ c  # repro: noqa[DTY101,SUP001]\n"
    )
    assert SUP001 in [f.rule for f in findings]


def test_deep_self_scan_is_clean(tmp_path):
    """The whole-program rules see the same clean tree from cached
    summaries: a warm run (every summary a cache hit) agrees with the
    cold one, so the summary JSON round-trip loses nothing they use."""
    cache_dir = str(tmp_path / "summary-cache")
    for expect_misses in (True, False):  # cold, then warm
        cache = SummaryCache(cache_dir)
        findings = checks.run([str(SRC)], cache=cache)
        rendered = "\n".join(f.render() for f in findings)
        assert findings == [], f"repro check found violations:\n{rendered}"
        assert (cache.stats()["misses"] > 0) is expect_misses


def test_registry_is_complete_and_well_formed():
    fams = checks.families()
    assert set(fams) == {"dtype", "threads", "obs", "numeric", "plan"}
    for family, ids in fams.items():
        assert len(ids) >= 3, f"family {family} has fewer than 3 rules"
    all_ids = [r.id for r in checks.iter_rules()]
    assert all_ids == sorted(all_ids)
    for r in checks.iter_rules():
        assert r.summary and r.invariant, f"{r.id} missing metadata"


def test_every_rule_is_documented():
    doc = (Path(__file__).parents[2] / "docs" / "static-analysis.md").read_text(
        encoding="utf-8"
    )
    missing = [r.id for r in checks.iter_rules() if f"| `{r.id}` |" not in doc]
    assert missing == [], f"rules without a row in docs/static-analysis.md: {missing}"
