"""RL006: shared-memory and mmap handles need an explicit lifetime.

A leaked ``SharedMemory`` segment outlives the process (PR 4's
resource-tracker fights came from exactly this -- no production code
creates one any more, and the rule keeps it that way for whatever
transport comes next); a leaked mmap keeps the database file pinned.
This rule checks every function that *acquires* such a handle --
``SharedMemory(...)``, ``mmap.mmap(...)``, ``np.memmap(...)``,
``np.load(..., mmap_mode=...)``, and ``load_database(..., mmap=...)``
(a mmap-backed ``Database`` owns one mapping per partition array and
exposes the paired ``close()``) -- and requires one of:

* the acquisition is the context expression of a ``with`` statement;
* the handle *escapes* the function (returned/yielded, stored on
  ``self``/a container, passed to another call) -- lifetime is then
  the owner's problem, e.g. ``FileBackedDatabaseHandle`` stores the
  database it maps and closes it in ``close()``;
* ``.close()``/``.unlink()`` is called on the bound name inside a
  ``finally`` block, or ``.unlink()`` anywhere in the function
  (create-then-destroy-by-name probes).

Anything else is a lexical leak.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.repro_lint.core import Finding, Module, dotted_name
from tools.repro_lint.registry import register

_ACQUIRE_TAILS = frozenset({"SharedMemory", "memmap"})


def _is_acquisition(call: ast.Call) -> bool:
    dotted = dotted_name(call.func)
    if dotted is None:
        return False
    tail = dotted.rsplit(".", 1)[-1]
    if tail in _ACQUIRE_TAILS:
        return True
    if dotted in ("mmap.mmap",) or tail == "mmap":
        return True
    if tail == "load" and any(kw.arg == "mmap_mode" for kw in call.keywords):
        return not any(
            kw.arg == "mmap_mode"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is None
            for kw in call.keywords
        )
    if tail == "load_database" and any(kw.arg == "mmap" for kw in call.keywords):
        # Database.close() is the paired release for the per-partition
        # mappings; mmap=False/None loads own no handles
        return not any(
            kw.arg == "mmap"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value in (False, None)
            for kw in call.keywords
        )
    return False


def _functions(tree: ast.Module) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


class _FunctionFacts:
    """Lexical facts about one function body, gathered in a single walk."""

    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.with_items: set[int] = set()          # id() of context-expr calls
        self.escaped_calls: set[int] = set()       # id() of calls whose value escapes
        self.assigned_name: dict[int, str] = {}    # id(call) -> local name
        self.escaped_names: set[str] = set()
        self.finally_released: set[str] = set()    # names .close()/.unlink()ed in finally
        self.unlinked_names: set[str] = set()      # names .unlink()ed anywhere
        self._collect(func)

    def _collect(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        for node in ast.walk(func):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(item.context_expr, ast.Call):
                        self.with_items.add(id(item.context_expr))
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.assigned_name[id(node.value)] = target.id
                    else:
                        # self.attr = acquire(...) / container[k] = acquire(...)
                        self.escaped_calls.add(id(node.value))
            elif isinstance(node, ast.Return) and isinstance(node.value, ast.Call):
                self.escaped_calls.add(id(node.value))
            elif isinstance(node, ast.Try):
                for stmt in node.finalbody:
                    for sub in ast.walk(stmt):
                        name = self._release_target(sub)
                        if name is not None:
                            self.finally_released.add(name)
            if isinstance(node, ast.Call):
                name = self._release_target(node, methods=("unlink",))
                if name is not None:
                    self.unlinked_names.add(name)
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    if isinstance(arg, ast.Name):
                        self.escaped_names.add(arg.id)
            elif isinstance(node, ast.Return) and isinstance(node.value, ast.Name):
                self.escaped_names.add(node.value.id)
            elif (
                isinstance(node, (ast.Yield, ast.YieldFrom))
                and node.value is not None
            ):
                if isinstance(node.value, ast.Name):
                    self.escaped_names.add(node.value.id)
                elif isinstance(node.value, ast.Call):
                    self.escaped_calls.add(id(node.value))
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
                for target in node.targets:
                    if not isinstance(target, ast.Name):
                        # handle stored on self/container via its name
                        self.escaped_names.add(node.value.id)
            elif isinstance(node, (ast.Tuple, ast.List, ast.Dict)):
                for sub in ast.iter_child_nodes(node):
                    if isinstance(sub, ast.Name):
                        self.escaped_names.add(sub.id)
            elif isinstance(node, ast.Lambda):
                # a lambda's body IS its return value: the handle
                # escapes to whoever calls the lambda
                if isinstance(node.body, ast.Call):
                    self.escaped_calls.add(id(node.body))
                elif isinstance(node.body, ast.Name):
                    self.escaped_names.add(node.body.id)

    @staticmethod
    def _release_target(
        node: ast.AST, methods: tuple[str, ...] = ("close", "unlink")
    ) -> str | None:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in methods
        ):
            receiver = node.func.value
            if isinstance(receiver, ast.Name):
                return receiver.id
            if isinstance(receiver, ast.Attribute):  # m.buf-style receivers
                inner = receiver.value
                if isinstance(inner, ast.Name):
                    return inner.id
        return None


@register
class ResourceLifetime:
    """Flag SharedMemory/mmap acquisitions with no paired release."""

    rule_id = "RL006"
    name = "resource-lifetime"
    rationale = (
        "PR 4: a leaked SharedMemory segment outlives the process and a "
        "leaked mmap pins the database file; every acquisition needs a "
        "with-block, an escaping owner, or a finally-paired close/unlink."
    )

    def applies(self, module: Module) -> bool:
        """Handle lifetimes are a whole-tree contract."""
        return True

    def check(self, module: Module) -> Iterator[Finding]:
        """Check every acquisition call against its innermost function."""
        for func in _functions(module.tree):
            # Attribute each call to its *innermost* def only, so a nested
            # helper's acquisitions are not double-reported via the outer.
            nested: set[int] = set()
            for child in ast.walk(func):
                if child is not func and isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    nested.update(id(n) for n in ast.walk(child) if n is not child)
            facts: _FunctionFacts | None = None
            for node in ast.walk(func):
                if not (isinstance(node, ast.Call) and _is_acquisition(node)):
                    continue
                if id(node) in nested:
                    continue
                if facts is None:
                    facts = _FunctionFacts(func)
                if id(node) in facts.with_items or id(node) in facts.escaped_calls:
                    continue
                name = facts.assigned_name.get(id(node))
                if name is not None and (
                    name in facts.escaped_names
                    or name in facts.finally_released
                    or name in facts.unlinked_names
                ):
                    continue
                yield Finding(
                    rule=self.rule_id,
                    path=module.relpath,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        "SharedMemory/mmap handle acquired without a paired "
                        "lifetime: use a with-block, return/store the handle, "
                        "or close/unlink it in a finally"
                    ),
                    symbol=func.name,
                )
