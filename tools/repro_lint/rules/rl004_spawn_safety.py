"""RL004: multiprocessing payloads must be spawn-safe.

The parallel engine (PR 2/4) uses the ``spawn`` start method so
workers import a fresh interpreter -- anything handed across the
process boundary must pickle cleanly and carry no process-local
state.  This rule is an AST approximation of that contract:

* ``get_context("fork")`` / ``set_start_method("fork")`` anywhere in
  ``src/`` -- fork silently inherits locks and mmap handles and is how
  spawn-safety bugs hide on Linux;
* payload expressions handed to ``Process(...)``, ``WorkerPool(...)``
  (whose ``init`` and slot arguments become the child entry's
  arguments), ``.put(...)``, ``.submit(...)``, or
  ``.apply_async(...)`` in the parallel modules
  must not contain lambdas, freshly-created locks/files
  (``Lock()``/``open()``), or names bound at module level to mutable
  literals (a shared dict smuggled into a worker is a different dict
  after spawn).
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.repro_lint.core import Finding, Module, dotted_name, enclosing_symbol
from tools.repro_lint.registry import register

PAYLOAD_SCOPES = (
    "src/repro/parallel/",
    "src/repro/shard/",
    "src/repro/core/builder.py",
    "src/repro/core/database.py",
)

_PAYLOAD_CALLS = frozenset({"put", "put_nowait", "submit", "apply_async"})
_UNPICKLABLE_CTORS = frozenset(
    {"Lock", "RLock", "Semaphore", "BoundedSemaphore", "Condition", "Event", "open"}
)


def _module_level_mutables(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(
            node.value, (ast.Dict, ast.List, ast.Set)
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _payload_args(call: ast.Call) -> list[ast.expr]:
    args = list(call.args)
    args.extend(kw.value for kw in call.keywords if kw.value is not None)
    return args


def _is_payload_call(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in _PAYLOAD_CALLS:
        return True
    dotted = dotted_name(func)
    if dotted is not None and dotted.rsplit(".", 1)[-1] in ("Process", "WorkerPool"):
        return True
    return False


@register
class SpawnSafety:
    """Flag fork start methods and unpicklable multiprocessing payloads."""

    rule_id = "RL004"
    name = "spawn-safety"
    rationale = (
        "PR 2/4: workers use the spawn start method, so job payloads must "
        "pickle cleanly -- no lambdas, locks, open handles, or shared "
        "module-level mutables."
    )

    def applies(self, module: Module) -> bool:
        """Fork checks are tree-wide; payload checks self-scope below."""
        return True

    def check(self, module: Module) -> Iterator[Finding]:
        """Flag fork start methods everywhere, payload hazards in scope."""
        payload_scope = module.relpath.startswith(PAYLOAD_SCOPES)
        mutables = _module_level_mutables(module.tree) if payload_scope else set()

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            tail = dotted.rsplit(".", 1)[-1] if dotted else ""
            if tail in ("get_context", "set_start_method"):
                for arg in _payload_args(node):
                    if isinstance(arg, ast.Constant) and arg.value == "fork":
                        yield Finding(
                            rule=self.rule_id,
                            path=module.relpath,
                            line=node.lineno,
                            col=node.col_offset,
                            message=(
                                'multiprocessing start method "fork" inherits '
                                "locks and mmap handles; this repo requires "
                                '"spawn"'
                            ),
                            symbol=enclosing_symbol(module.tree, node.lineno),
                        )
            elif payload_scope and _is_payload_call(node):
                yield from self._check_payload(module, node, mutables)

    def _check_payload(
        self, module: Module, call: ast.Call, mutables: set[str]
    ) -> Iterator[Finding]:
        for arg in _payload_args(call):
            for sub in ast.walk(arg):
                problem: str | None = None
                if isinstance(sub, ast.Lambda):
                    problem = "a lambda (not picklable under spawn)"
                elif isinstance(sub, ast.Call):
                    sub_dotted = dotted_name(sub.func)
                    sub_tail = sub_dotted.rsplit(".", 1)[-1] if sub_dotted else ""
                    if sub_tail in _UNPICKLABLE_CTORS:
                        problem = (
                            f"a fresh {sub_tail}() (process-local lock/handle "
                            "state does not survive spawn)"
                        )
                elif isinstance(sub, ast.Name) and sub.id in mutables:
                    problem = (
                        f"module-level mutable {sub.id!r} (each spawned worker "
                        "gets an independent copy)"
                    )
                if problem is not None:
                    yield Finding(
                        rule=self.rule_id,
                        path=module.relpath,
                        line=sub.lineno,
                        col=sub.col_offset,
                        message=f"multiprocessing payload contains {problem}",
                        symbol=enclosing_symbol(module.tree, call.lineno),
                    )
