"""RL007: dependencies point downward only.

DESIGN.md's first rule, machine-enforced.  Two directions are banned
for ``import`` / ``from ... import`` statements anywhere in a module
(top level, inside functions, under ``TYPE_CHECKING``):

* the installed package must not depend on the paper projection: no
  module under ``src/repro/`` may import ``paper`` -- the simulated-GPU
  substrate and the paper-table harness live in ``benchmarks/paper/``
  and *wrap* the core;
* nothing below the facade may import it back: only ``api/``,
  ``server/``, ``cli.py`` and ``__main__.py`` may import
  ``repro.api`` or ``repro.server``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.repro_lint.core import Finding, Module, enclosing_symbol
from tools.repro_lint.registry import register

_PACKAGE = "src/repro/"

#: (banned packages, path prefixes allowed to import them, why)
_DIRECTIONS = (
    (
        ("paper",),
        (),
        "the installed package must not import the paper projection "
        "(benchmarks/paper/ wraps the core, not the reverse)",
    ),
    (
        ("repro.api", "repro.server"),
        ("api/", "server/", "cli.py", "__main__.py"),
        "layers below the facade must not import it back "
        "(dependencies point downward only)",
    ),
)


def _imported_modules(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        if node.module == "repro":  # from repro import api
            return [f"repro.{alias.name}" for alias in node.names]
        return [node.module]
    return []


@register
class ImportDirection:
    """Flag imports that point up the layering."""

    rule_id = "RL007"
    name = "import-direction"
    rationale = (
        "The simulated GPU wraps the core from benchmarks/paper/; DESIGN.md's "
        "'dependencies point downward only' must not regress by accident."
    )

    def applies(self, module: Module) -> bool:
        """Every module of the ``repro`` package is in scope."""
        return module.relpath.startswith(_PACKAGE)

    def check(self, module: Module) -> Iterator[Finding]:
        """Yield one finding per upward ``repro.*`` import."""
        inner = module.relpath[len(_PACKAGE) :]
        for node in ast.walk(module.tree):
            for name in _imported_modules(node):
                for banned, allowed, why in _DIRECTIONS:
                    hit = any(name == b or name.startswith(b + ".") for b in banned)
                    if hit and not inner.startswith(allowed):
                        yield Finding(
                            rule=self.rule_id,
                            path=module.relpath,
                            line=node.lineno,
                            col=node.col_offset,
                            message=f"imports {name}: {why}",
                            symbol=enclosing_symbol(module.tree, node.lineno),
                        )
