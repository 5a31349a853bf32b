"""Picklable ``init``/task pairs for driving a bare ``WorkerPool``.

Spawned children import their ``init`` by module path, so these live
in an importable module (light imports only), not in a test file.
"""

import functools


def _scale(factor, value):
    if value is None:
        raise ValueError("cannot scale None")
    return factor * value


def start_scaler(factor):
    """``init``: the task multiplies its argument by ``factor``."""
    return functools.partial(_scale, factor)


def start_broken(factor):
    """``init`` that always fails (the failed-start contract case)."""
    raise RuntimeError(f"cannot start scaler {factor}")


class Unloadable:
    """Pickles fine in the parent, fails to unpickle in the child."""

    def __reduce__(self):
        return (int, ("not-a-number",))
