"""Thread-safety rules (``THR``).

Invariants (``src/repro/core/gemm.py``, ``repro/obs/log.py``,
``repro/serve/``, ``repro/cluster/``): process-wide singletons — the
GEMM call counters, the logging config, metric registries, session
caches — are shared across serving worker threads.  Every mutation of
module-level mutable state must happen under its owning lock, every
manual ``acquire`` must have a guaranteed ``release``, any module-level
thread pool must rebuild itself after ``fork`` (keyed on
``os.getpid()``), and every ``multiprocessing.shared_memory`` segment must
have a guaranteed ``close()``/``unlink()`` path (the
``repro.cluster.shm`` ownership discipline) — leaked segments survive
the process in ``/dev/shm``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.checks.analysis.summary import global_names, module_state, state_writes
from repro.checks.astutil import enclosing_function, in_with_lock, is_lockish, terminal_name
from repro.checks.engine import FileContext
from repro.checks.findings import Finding, Severity
from repro.checks.registry import rule

_POOL_FACTORIES = ("ThreadPoolExecutor", "ProcessPoolExecutor", "ThreadPool",
                   "Pool")


@rule(
    id="THR201",
    family="threads",
    severity=Severity.ERROR,
    summary="module-level mutable state mutated outside a `with <lock>:` block",
    invariant=(
        "Process-wide singletons (gemm call stats, logger registry, "
        "logging config) are shared by serving worker threads; every "
        "mutation must hold the owning lock — taken in place or by every "
        "resolved caller — as repro.core.gemm and repro.obs.log do."
    ),
)
def check_unlocked_module_state(ctx: FileContext) -> Iterator[Finding]:
    tracked, _ = module_state(ctx.tree, scalars=False)
    if not tracked:
        return
    declared: dict[ast.AST, set[str]] = {}
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.Assign, ast.AugAssign, ast.Call, ast.Delete)):
            continue
        func = enclosing_function(node, ctx.parents)
        if func is None:
            continue  # import-time initialization is single-threaded
        if func not in declared:
            declared[func] = global_names(func)
        names = state_writes(node, tracked, declared[func])
        if not names or in_with_lock(node, ctx.parents):
            continue
        ref = ctx.graph.project.enclosing_function(ctx.path, node.lineno)
        if ref is not None and ctx.graph.entry_lockset(ref.fq):
            continue  # every resolved caller enters with a lock held
        yield ctx.finding(
            "THR201", node,
            f"module-level mutable `{names[0]}` (defined at line "
            f"{tracked[names[0]]}) mutated outside a `with <lock>:` block — "
            "guard with the owning lock or make it thread-local",
        )


def _try_releases(try_node: ast.Try) -> bool:
    for stmt in try_node.finalbody:
        for sub in ast.walk(stmt):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "release"
            ):
                return True
    return False


def _followed_by_releasing_try(call: ast.Call, ctx: FileContext) -> bool:
    """``lock.acquire()`` immediately followed by ``try/.../finally: release``."""
    stmt = ctx.parents.get(call)
    if not isinstance(stmt, ast.Expr):
        return False
    owner = ctx.parents.get(stmt)
    for body in ("body", "orelse", "finalbody"):
        stmts = getattr(owner, body, None)
        if isinstance(stmts, list) and stmt in stmts:
            idx = stmts.index(stmt)
            if idx + 1 < len(stmts) and isinstance(stmts[idx + 1], ast.Try):
                return _try_releases(stmts[idx + 1])
    return False


@rule(
    id="THR202",
    family="threads",
    severity=Severity.ERROR,
    summary="lock.acquire() without context manager or try/finally release",
    invariant=(
        "An exception between acquire() and release() deadlocks every "
        "other serving thread; locks are taken with `with lock:` or an "
        "immediately-following try/finally."
    ),
)
def check_bare_acquire(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "acquire"
            and is_lockish(node.func.value)
        ):
            continue
        # acquire() inside a try whose finally releases is also fine.
        protected = False
        cur = ctx.parents.get(node)
        while cur is not None and not isinstance(
            cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)
        ):
            if isinstance(cur, ast.Try) and _try_releases(cur):
                protected = True
                break
            cur = ctx.parents.get(cur)
        if protected or _followed_by_releasing_try(node, ctx):
            continue
        yield ctx.finding(
            "THR202", node,
            "lock.acquire() without `with lock:` or a try/finally "
            "release — an exception here deadlocks the other threads",
        )


@rule(
    id="THR203",
    family="threads",
    severity=Severity.ERROR,
    summary="module-level thread pool without the PID-keyed fork-rebuild pattern",
    invariant=(
        "Worker threads do not survive fork(); a module-global pool must "
        "detect the PID change and rebuild — in the function that builds "
        "it or in a (transitive) caller — or forked servers hang on a "
        "dead pool."
    ),
)
def check_pool_fork_safety(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Assign):
            continue
        if not (
            isinstance(node.value, ast.Call)
            and (terminal_name(node.value.func) or "") in _POOL_FACTORIES
        ):
            continue
        func = enclosing_function(node, ctx.parents)
        if func is not None:
            declared = global_names(func)
            if not any(
                isinstance(t, ast.Name) and t.id in declared
                for t in node.targets
            ):
                continue  # a local pool, not module-global
            if _mentions_getpid(func):
                continue  # the building function carries the PID guard
            ref = ctx.graph.project.enclosing_function(ctx.path, node.lineno)
            if ref is not None and ctx.graph.ancestors_with_getpid(ref.fq):
                continue  # a (transitive) caller carries the PID guard
        yield ctx.finding(
            "THR203", node,
            "module-global thread pool built without a PID-keyed "
            "fork-rebuild guard — build it lazily and rebuild when "
            "os.getpid() differs from the pid recorded at construction",
        )


def _mentions_getpid(func: ast.AST) -> bool:
    return any(
        (isinstance(n, ast.Attribute) and n.attr == "getpid")
        or (isinstance(n, ast.Name) and n.id == "getpid")
        for n in ast.walk(func)
    )


def _try_closes(try_node: ast.Try) -> bool:
    """finally block calls ``.close()`` or ``.unlink()`` on something."""
    for stmt in try_node.finalbody:
        for sub in ast.walk(stmt):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in ("close", "unlink")
            ):
                return True
    return False


def _in_with_statement(node: ast.AST, ctx: FileContext) -> bool:
    """The call is a ``with`` item's context expression (possibly nested)."""
    cur = node
    parent = ctx.parents.get(cur)
    while parent is not None and not isinstance(
        parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)
    ):
        if isinstance(parent, (ast.With, ast.AsyncWith)):
            for item in parent.items:
                for sub in ast.walk(item.context_expr):
                    if sub is node:
                        return True
        cur, parent = parent, ctx.parents.get(parent)
    return False


def _under_closing_try(node: ast.AST, ctx: FileContext) -> bool:
    cur = ctx.parents.get(node)
    while cur is not None and not isinstance(
        cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)
    ):
        if isinstance(cur, ast.Try) and _try_closes(cur):
            return True
        cur = ctx.parents.get(cur)
    return False


def _followed_by_closing_try(call: ast.Call, ctx: FileContext) -> bool:
    """``seg = SharedMemory(...)`` immediately followed by
    ``try/.../finally: seg.close()``."""
    stmt = ctx.parents.get(call)
    if not isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.Expr)):
        return False
    owner = ctx.parents.get(stmt)
    for body in ("body", "orelse", "finalbody"):
        stmts = getattr(owner, body, None)
        if isinstance(stmts, list) and stmt in stmts:
            idx = stmts.index(stmt)
            if idx + 1 < len(stmts) and isinstance(stmts[idx + 1], ast.Try):
                return _try_closes(stmts[idx + 1])
    return False


def _owned_by_closing_class(call: ast.Call, ctx: FileContext) -> bool:
    """``self.<attr> = SharedMemory(...)`` inside a class defining close().

    The resource-owner pattern (``repro.cluster.shm.ShmSegment``): the
    class takes custody of the segment and its ``close()`` is the single
    cleanup point callers pair with try/finally or ``with``.
    """
    stmt = ctx.parents.get(call)
    if not isinstance(stmt, ast.Assign):
        return False
    assigns_self_attr = any(
        isinstance(t, ast.Attribute)
        and isinstance(t.value, ast.Name)
        and t.value.id == "self"
        for t in stmt.targets
    )
    if not assigns_self_attr:
        return False
    cur = ctx.parents.get(stmt)
    while cur is not None:
        if isinstance(cur, ast.ClassDef):
            return any(
                isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
                and s.name == "close"
                for s in cur.body
            )
        cur = ctx.parents.get(cur)
    return False


@rule(
    id="THR204",
    family="threads",
    severity=Severity.ERROR,
    summary="SharedMemory acquired without paired close()/unlink() cleanup",
    invariant=(
        "POSIX shared memory outlives the process: a segment that is not "
        "close()d and (by its creator) unlink()ed leaks /dev/shm until "
        "reboot.  Every SharedMemory must be wrapped in a with block, a "
        "try/finally that closes it, or owned by a class whose close() "
        "is the cleanup point (repro.cluster.shm.ShmSegment)."
    ),
)
def check_shared_memory_lifecycle(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not (
            isinstance(node, ast.Call)
            and terminal_name(node.func) == "SharedMemory"
        ):
            continue
        if (
            _in_with_statement(node, ctx)
            or _under_closing_try(node, ctx)
            or _followed_by_closing_try(node, ctx)
            or _owned_by_closing_class(node, ctx)
        ):
            continue
        yield ctx.finding(
            "THR204", node,
            "SharedMemory segment acquired without paired cleanup — use "
            "`with`, a try/finally calling close() (creator also "
            "unlink()), or hand it to a close()-owning wrapper class "
            "like repro.cluster.shm.ShmSegment",
        )


__all__ = [
    "check_unlocked_module_state",
    "check_bare_acquire",
    "check_pool_fork_safety",
    "check_shared_memory_lifecycle",
]
