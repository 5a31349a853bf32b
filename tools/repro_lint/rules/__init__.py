"""Rule modules.  Importing this package registers every rule.

Each module holds exactly one rule class decorated with
:func:`tools.repro_lint.registry.register`; adding a rule is adding a
module here plus an import below (see docs/dev/static-analysis.md).
"""

from tools.repro_lint.rules import (  # noqa: F401
    rl000_docstrings,
    rl001_hot_path_loop,
    rl002_float_accumulation,
    rl003_typed_errors,
    rl004_spawn_safety,
    rl005_async_hygiene,
    rl006_resource_lifetime,
    rl007_import_direction,
)
