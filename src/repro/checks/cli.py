"""``repro check`` — the CLI face of the static analyzer.

Exit codes (pinned in ``tests/checks/test_cli.py``):

* ``0`` — scan ran, zero unsuppressed findings;
* ``1`` — scan ran, at least one finding;
* ``2`` — usage error (unknown rule id, nonexistent path, bad flag).
"""

from __future__ import annotations

import argparse
import subprocess
from pathlib import Path
from typing import Sequence

from repro.checks.engine import discover, run
from repro.checks.registry import families, iter_rules
from repro.checks.report import render_json, render_text
from repro.obs.log import console


def add_check_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``repro check`` argument schema (shared with ``__main__``)."""
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files/directories to scan (default: src/)",
    )
    parser.add_argument(
        "--rules", default=None, metavar="ID[,ID...]",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        help="report format (sarif targets GitHub code scanning)",
    )
    parser.add_argument(
        "--changed", action="store_true",
        help="run the per-file rules only on .py files changed vs git HEAD "
        "(pre-commit mode); the whole-program rules still see every file "
        "under the paths, from the summary cache.  Outside a git "
        "work-tree this falls back to a full scan",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="summary-cache directory (default: .repro-check-cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the summary cache",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule registry and exit",
    )


def _changed_files(paths: Sequence[str]) -> list[str] | None:
    """``.py`` files changed vs HEAD (staged, unstaged, untracked).

    Returns ``None`` when git is unavailable or the working directory is
    not inside a work-tree (e.g. an exported tarball) — the caller falls
    back to a full-tree scan instead of crashing.
    """
    cmds = (
        ["git", "diff", "--name-only", "HEAD", "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    )
    names: set[str] = set()
    for cmd in cmds:
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, check=False
            )
        except OSError:
            return None  # git binary missing
        if proc.returncode != 0:
            return None  # not a work-tree, unborn HEAD, etc.
        names.update(line.strip() for line in proc.stdout.splitlines() if line.strip())
    roots = [Path(p).resolve() for p in paths]
    out = []
    for name in sorted(names):
        p = Path(name)
        if p.suffix != ".py" or not p.exists():
            continue
        rp = p.resolve()
        if any(rp == r or r in rp.parents for r in roots):
            out.append(str(p))
    return out


def _render_rule_list() -> str:
    lines = ["repro check — registered rules", ""]
    fam_titles = {
        "dtype": "dtype-exactness",
        "threads": "thread-safety",
        "obs": "obs-discipline",
        "numeric": "numeric-safety",
    }
    for family, ids in families().items():
        lines.append(f"[{fam_titles.get(family, family)}]")
        for rule in iter_rules(ids):
            lines.append(
                f"  {rule.id}  ({rule.severity.value:<7}) {rule.summary}"
            )
        lines.append("")
    lines.append("SUP001  (error  ) `# repro: noqa[RULE]` without a justification")
    lines.append("")
    lines.append("suppress with: <code>  # repro: noqa[RULE] — <why it is safe>")
    return "\n".join(lines)


def run_check(args: argparse.Namespace) -> int:
    """Execute ``repro check`` from parsed arguments."""
    if args.list_rules:
        console(_render_rule_list())
        return 0

    paths = list(args.paths or [])
    if not paths:
        default = Path("src")
        if not default.is_dir():
            console(
                "repro check: error: no paths given and ./src does not exist",
                err=True,
            )
            return 2
        paths = [str(default)]

    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]

    # Imported here, not at module level: every ``repro`` command builds
    # its parser from this module, and only a scan needs the analysis
    # package.
    from repro.checks.analysis.cache import DEFAULT_CACHE_DIR, SummaryCache

    cache = None
    if not args.no_cache:
        cache = SummaryCache(args.cache_dir or DEFAULT_CACHE_DIR)
    try:
        # Validate rule ids before touching the filesystem.
        list(iter_rules(rules))
        changed = None
        if args.changed:
            changed = _changed_files(paths)
            if changed is None:
                console(
                    "repro check: warning: --changed needs a git work-tree; "
                    "falling back to a full scan",
                    err=True,
                )
        scanned = len(discover(paths))
        findings = run(paths, rules=rules, cache=cache, changed=changed)
    except KeyError as exc:
        console(f"repro check: error: {exc.args[0]}", err=True)
        return 2
    except (FileNotFoundError, RuntimeError) as exc:
        console(f"repro check: error: {exc}", err=True)
        return 2

    if args.format == "json":
        console(render_json(findings, scanned))
    elif args.format == "sarif":
        from repro.checks.sarif import render_sarif

        console(render_sarif(findings, scanned))
    else:
        console(render_text(findings, scanned))
    return 1 if findings else 0


def main(argv: Sequence[str] | None = None) -> int:
    """Standalone entry point (``python -m repro.checks.cli``)."""
    parser = argparse.ArgumentParser(
        prog="repro check",
        description="project-invariant static analyzer (repro.checks)",
    )
    add_check_arguments(parser)
    try:
        args = parser.parse_args(list(argv) if argv is not None else None)
    except SystemExit as exc:  # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    return run_check(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())


__all__ = ["add_check_arguments", "run_check", "main"]
