"""Resource-lifecycle checker: shared memory and group futures close cleanly.

The multiprocess executor moves model state through
``multiprocessing.shared_memory`` arenas.  Leaked segments survive the
process (``/dev/shm`` fills up across a sweep).  LIFE003 guards any
non-blocking ``submit_group`` dispatch API: a future that is never
consumed or released pins the arena memory it writes into.

Rules (module-granular heuristics — the structural property is "every
create has a matching release *somewhere on every path*", which the
fixtures pin down and code review enforces in detail):

``LIFE001``
    A module creates ``SharedMemory(create=True)`` but never calls both
    ``.close()`` and ``.unlink()``.
``LIFE002``
    A module attaches to an existing segment (``SharedMemory(name=...)``)
    but never calls ``.close()``.
``LIFE003``
    A ``submit_group(...)`` result is dropped: called as a bare
    expression statement, or bound to a name that is never used again in
    the same scope (so ``.result()``/``.release()``/``.discard()`` can
    never run).

Escape hatch: ``# analyze: allow-lifecycle(reason)``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .core import Checker, Finding, Module
from .walk import CallSite, dotted_name, iter_calls

__all__ = ["ResourceLifecycleChecker"]


def _is_shared_memory_call(site: CallSite) -> bool:
    name = site.func_name
    return name is not None and name.split(".")[-1] == "SharedMemory"


def _creates(site: CallSite) -> bool:
    for keyword in site.node.keywords:
        if keyword.arg == "create":
            value = keyword.value
            return not (
                isinstance(value, ast.Constant) and value.value is False
            )
    return False


class ResourceLifecycleChecker(Checker):
    """LIFE001-LIFE003: arena create/close/unlink and future release."""

    name = "resource-lifecycle"
    rules = {
        "LIFE001": "SharedMemory(create=True) without close()+unlink() in module",
        "LIFE002": "SharedMemory attach without close() in module",
        "LIFE003": "submit_group() future dropped without result/release/discard",
    }
    allow_tag = "lifecycle"

    def check_module(self, module: Module) -> Iterable[Finding]:
        findings: List[Finding] = []
        creates: List[CallSite] = []
        attaches: List[CallSite] = []
        released: Set[str] = set()
        for site in iter_calls(module.tree):
            if _is_shared_memory_call(site):
                (creates if _creates(site) else attaches).append(site)
            name = site.func_name
            if name is not None and name.split(".")[-1] in (
                "close",
                "unlink",
            ):
                released.add(name.split(".")[-1])

        for site in creates:
            missing = sorted({"close", "unlink"} - released)
            if missing and not module.allows(self.allow_tag, site.node, site.stmt):
                findings.append(
                    module.finding(
                        "LIFE001",
                        site.node,
                        "SharedMemory(create=True) here but the module never "
                        f"calls {' / '.join('.' + m + '()' for m in missing)}",
                        "release the segment on every path (try/finally or a "
                        "close() method covering error paths)",
                    )
                )
        if "close" not in released:
            for site in attaches:
                if not module.allows(self.allow_tag, site.node, site.stmt):
                    findings.append(
                        module.finding(
                            "LIFE002",
                            site.node,
                            "SharedMemory attach here but the module never "
                            "calls .close()",
                            "close attached segments when the view is dropped",
                        )
                    )

        findings.extend(self._check_futures(module))
        return findings

    # ------------------------------------------------------------------
    def _check_futures(self, module: Module) -> List[Finding]:
        findings: List[Finding] = []
        for scope in self._function_scopes(module.tree):
            findings.extend(self._check_scope_futures(module, scope))
        return findings

    @staticmethod
    def _function_scopes(tree: ast.Module) -> List[ast.AST]:
        scopes: List[ast.AST] = [tree]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append(node)
        return scopes

    def _check_scope_futures(
        self, module: Module, scope: ast.AST
    ) -> List[Finding]:
        """Flag dropped ``submit_group`` results within one function body."""
        body = scope.body if hasattr(scope, "body") else []
        statements = self._flatten(body)
        findings: List[Finding] = []
        bound: List[Tuple[str, ast.stmt, ast.Call]] = []
        uses: Dict[str, int] = {}
        for stmt in statements:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            submit = self._submit_call(stmt)
            if submit is not None:
                if isinstance(stmt, ast.Expr):
                    if not module.allows(self.allow_tag, submit, stmt):
                        findings.append(
                            module.finding(
                                "LIFE003",
                                submit,
                                "submit_group(...) result dropped (bare "
                                "expression): the arena slot can never be "
                                "released",
                                "bind the GroupFuture and call result()/"
                                "release()/discard() on every path",
                            )
                        )
                    continue
                target = self._single_name_target(stmt)
                if target is not None:
                    bound.append((target, stmt, submit))
                    continue
            # Count every other Name load/store in the statement as a use.
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    uses[node.id] = uses.get(node.id, 0) + 1
        for name, stmt, submit in bound:
            if uses.get(name, 0) == 0 and not module.allows(
                self.allow_tag, submit, stmt
            ):
                findings.append(
                    module.finding(
                        "LIFE003",
                        submit,
                        f"GroupFuture bound to {name!r} is never used again: "
                        "result()/release()/discard() can never run",
                        "consume or explicitly discard the future",
                    )
                )
        return findings

    @staticmethod
    def _flatten(body: List[ast.stmt]) -> List[ast.stmt]:
        """All statements in a function body, without descending into
        nested function definitions (they are separate scopes)."""
        out: List[ast.stmt] = []
        stack = list(body)
        while stack:
            stmt = stack.pop(0)
            out.append(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    stack.append(child)
                elif isinstance(child, (ast.excepthandler, ast.withitem)):
                    stack.extend(
                        sub
                        for sub in ast.iter_child_nodes(child)
                        if isinstance(sub, ast.stmt)
                    )
        return out

    @staticmethod
    def _submit_call(stmt: ast.stmt) -> Optional[ast.Call]:
        value = getattr(stmt, "value", None)
        if isinstance(value, ast.Call):
            name = dotted_name(value.func)
            if name is not None and name.split(".")[-1] == "submit_group":
                return value
        return None

    @staticmethod
    def _single_name_target(stmt: ast.stmt) -> Optional[str]:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                return target.id
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            return stmt.target.id
        return None
