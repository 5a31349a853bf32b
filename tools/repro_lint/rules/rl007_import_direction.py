"""RL007: dependencies point downward only.

DESIGN.md's first rule, machine-enforced.  Two directions are banned
for ``import`` / ``from ... import`` statements anywhere in a module
(top level, inside functions, under ``TYPE_CHECKING``):

* production code must not depend on the simulation: nothing under
  ``src/repro/`` outside ``gpu/``, ``bench/`` and ``baselines/`` may
  import ``repro.gpu`` or ``repro.bench`` -- the simulated-GPU
  substrate and the paper-table harness *wrap* the core (PR 13 moved
  ``Device``/``MultiGpuNode`` out of ``core/`` and ``api/``);
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

#: (banned top-level subpackages, path prefixes allowed to import them, why)
_DIRECTIONS = (
    (
        ("gpu", "bench"),
        ("gpu/", "bench/", "baselines/"),
        "production code must not import the simulation/bench layer "
        "(repro.gpu and repro.bench wrap the core, not the reverse)",
    ),
    (
        ("api", "server"),
        ("api/", "server/", "cli.py", "__main__.py"),
        "layers below the facade must not import it back "
        "(dependencies point downward only)",
    ),
)


def _imported_modules(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        if node.module == "repro":  # from repro import gpu
            return [f"repro.{alias.name}" for alias in node.names]
        return [node.module]
    return []


@register
class ImportDirection:
    """Flag imports that point up the layering."""

    rule_id = "RL007"
    name = "import-direction"
    rationale = (
        "PR 13 inverted core's dependency on the simulated GPU; DESIGN.md's "
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
                parts = name.split(".")
                if parts[0] != "repro" or len(parts) < 2:
                    continue
                for banned, allowed, why in _DIRECTIONS:
                    if parts[1] in banned and not inner.startswith(allowed):
                        yield Finding(
                            rule=self.rule_id,
                            path=module.relpath,
                            line=node.lineno,
                            col=node.col_offset,
                            message=f"imports {name}: {why}",
                            symbol=enclosing_symbol(module.tree, node.lineno),
                        )
