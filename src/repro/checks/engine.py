"""The :mod:`repro.checks` analysis engine.

Drives the registered rules over a set of Python files in one pass:

1. build the project — parse each file once into a :class:`FileContext`
   (AST + parent links + suppression table) and summarize it, serving
   the summary from the content-addressed cache when the source is
   unchanged (:class:`~repro.checks.analysis.project.Project`);
2. build the call graph over the summaries;
3. run every selected rule — ``file`` rules on each context (they may
   consult the call graph through ``ctx.graph``), ``program`` rules
   (THR210/THR211/DTY110) once on the graph;
4. drop suppressed findings through one filter, and emit meta-findings
   for malformed suppressions and unparseable files.

Suppression syntax
------------------
A finding is suppressed by a same-line comment::

    risky_thing()  # repro: noqa[DTY101] — exact: operands are bool masks

* The rule id in brackets is mandatory — there is no blanket ``noqa``.
* Multiple ids: ``# repro: noqa[DTY101,THR201] — <why>``.
* The justification text after ``—`` (or ``--`` / ``:``) is **required**;
  a bare ``# repro: noqa[X]`` raises :data:`SUP001`, which cannot itself
  be suppressed.  The policy is deliberate: every suppression documents
  *why* the invariant holds anyway, so reviewers can audit them.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.checks.findings import Finding, Severity
from repro.checks.registry import Rule, iter_rules
from repro.checks import astutil

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.checks.analysis.callgraph import CallGraph
    from repro.checks.analysis.cache import SummaryCache
    from repro.checks.analysis.project import Project

#: Meta-rule id for a suppression comment without a justification.
SUP001 = "SUP001"

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa\[(?P<ids>[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)\]"
    r"\s*(?:(?:—|--|:)\s*(?P<why>\S.*))?"
)


@dataclass
class Suppression:
    """One parsed ``# repro: noqa[...]`` comment."""

    line: int
    rule_ids: tuple
    justification: str


@dataclass
class FileContext:
    """Everything a rule needs to scan one file."""

    path: str                    #: path as reported in findings
    source: str
    tree: ast.Module
    lines: list = field(default_factory=list)
    parents: dict = field(default_factory=dict)
    suppressions: dict = field(default_factory=dict)  #: line -> Suppression
    bad_suppressions: list = field(default_factory=list)
    #: the run's call graph, set by the engine before any rule runs
    graph: CallGraph | None = None

    @property
    def posix_path(self) -> str:
        return Path(self.path).as_posix()

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(
        self, rule_id: str, node: ast.AST, message: str, **extra: object
    ) -> Finding:
        """Build a Finding at ``node``'s location for rule ``rule_id``."""
        from repro.checks.registry import RULES

        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=rule_id,
            severity=RULES[rule_id].severity,
            path=self.path,
            line=line,
            col=col,
            message=message,
            snippet=self.line_text(line),
            extra=dict(extra),
        )


def suppression_covers(
    suppressions: dict[int, "Suppression"], finding: Finding
) -> bool:
    """Does a parsed noqa table suppress ``finding``?

    Scope is the **physical line only**: a ``# repro: noqa[RULE]`` on a
    decorator line covers just that line, never the decorated function's
    ``def`` line or body (pinned by the decorator regression fixtures in
    ``tests/checks/test_engine.py``).  Whole-program findings go through
    this same helper, so an interprocedural THR210/DTY110 report is
    silenced only by a noqa on the exact anchored line.
    """
    sup = suppressions.get(finding.line)
    return sup is not None and finding.rule in sup.rule_ids


def _parse_suppressions(
    source: str,
) -> tuple[dict[int, Suppression], list[Suppression]]:
    """Extract ``# repro: noqa[...]`` comments via the tokenizer.

    Tokenizing (rather than regexing raw lines) keeps ``#`` characters
    inside string literals from being misread as comments.
    """
    table: dict[int, Suppression] = {}
    malformed: list[Suppression] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _NOQA_RE.search(tok.string)
            if not m:
                continue
            ids = tuple(s.strip() for s in m.group("ids").split(","))
            why = (m.group("why") or "").strip()
            sup = Suppression(line=tok.start[0], rule_ids=ids, justification=why)
            if why:
                table[sup.line] = sup
            else:
                malformed.append(sup)
    except tokenize.TokenError:  # pragma: no cover - unterminated source
        pass
    return table, malformed


def make_context(source: str, path: str = "<string>") -> FileContext:
    """Parse ``source`` into a :class:`FileContext` (raises SyntaxError)."""
    tree = ast.parse(source, filename=path)
    suppressions, malformed = _parse_suppressions(source)
    return FileContext(
        path=path,
        source=source,
        tree=tree,
        lines=source.splitlines(),
        parents=astutil.parent_map(tree),
        suppressions=suppressions,
        bad_suppressions=malformed,
    )


def _syntax_finding(path: str, exc: SyntaxError) -> Finding:
    return Finding(
        rule="PARSE000",
        severity=Severity.ERROR,
        path=path,
        line=exc.lineno or 1,
        col=exc.offset or 0,
        message=f"could not parse file: {exc.msg}",
    )


def discover(paths: Sequence[str]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[Path] = set()
    for p in paths:
        path = Path(p)
        if not path.exists():
            raise FileNotFoundError(f"no such file or directory: {p}")
        if path.is_dir():
            for f in path.rglob("*.py"):
                if "__pycache__" not in f.parts:
                    out.add(f)
        elif path.suffix == ".py":
            out.add(path)
    return sorted(out)


def run(
    paths: Sequence[str] | str,
    rules: Iterable[str] | None = None,
    *,
    cache: SummaryCache | None = None,
    changed: Sequence[str] | None = None,
) -> list[Finding]:
    """Scan files/directories and return all unsuppressed findings.

    This is the importable API (``repro.checks.run(paths)``); the CLI is
    a thin wrapper that renders the result and maps it to an exit code.
    ``cache`` serves unchanged modules' summaries.  ``changed`` narrows
    the ``file`` rules to those files (``repro check --changed``); the
    ``program`` rules always see every file under ``paths``.
    """
    from repro.checks.analysis.project import Project  # imports this module

    if isinstance(paths, str):
        paths = [paths]
    selected = list(iter_rules(rules))
    project = Project.load(paths, cache=cache)
    files = None
    if changed is not None:
        wanted = {Path(p).resolve() for p in changed}
        files = {
            p for p in (*project.files, *project.parse_failures)
            if Path(p).resolve() in wanted
        }
    return _analyze(project, selected, files)


def run_sources(
    sources: Mapping[str, str],
    rules: Iterable[str] | None = None,
) -> list[Finding]:
    """Scan in-memory ``{path: source}`` modules as one project."""
    from repro.checks.analysis.project import Project  # imports this module

    selected = list(iter_rules(rules))
    return _analyze(Project.from_sources(sources), selected)


def run_source(
    source: str,
    path: str = "src/repro/_snippet.py",
    rules: Iterable[str] | None = None,
) -> list[Finding]:
    """Scan one source string (the fixture-test entry point)."""
    return run_sources({path: source}, rules=rules)


def _analyze(
    project: Project,
    rules: Sequence[Rule],
    files: set[str] | None = None,
) -> list[Finding]:
    """Run ``rules`` over ``project``; ``file`` rules only on ``files``
    (every file when ``None``)."""
    from repro.checks.analysis.callgraph import CallGraph

    graph = CallGraph.build(project)
    contexts = [
        ctx for path, ctx in project.files.items()
        if files is None or path in files
    ]
    for ctx in contexts:
        ctx.graph = graph
    raw: list[Finding] = []
    for r in rules:
        if r.scope == "program":
            raw.extend(r.check(graph))
            continue
        for ctx in contexts:
            if r.applies_to(ctx.posix_path):
                raw.extend(r.check(ctx))
    findings = [
        f for f in raw
        if not suppression_covers(project.files[f.path].suppressions, f)
    ]
    for ctx in contexts:
        findings.extend(_bad_suppression_findings(ctx))
    for path, exc in project.parse_failures.items():
        if files is None or path in files:
            findings.append(_syntax_finding(path, exc))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def _bad_suppression_findings(ctx: FileContext) -> Iterable[Finding]:
    """SUP001 for each noqa without a justification (never suppressible)."""
    for sup in ctx.bad_suppressions:
        yield Finding(
            rule=SUP001,
            severity=Severity.ERROR,
            path=ctx.path,
            line=sup.line,
            col=0,
            message=(
                f"noqa[{','.join(sup.rule_ids)}] without a justification — "
                "append '— <why the invariant holds anyway>'"
            ),
            snippet=ctx.line_text(sup.line),
        )


__all__ = [
    "SUP001",
    "Suppression",
    "FileContext",
    "make_context",
    "suppression_covers",
    "run",
    "run_sources",
    "run_source",
    "discover",
]
