"""Shared infrastructure of the paper-table scripts.

Every ``bench_*.py`` renders its paper-style table/figure as text; the
``report`` fixture records it.  Rendered artifacts are written to
``benchmarks/paper/out/`` and echoed into the terminal summary, so
``PYTHONPATH=src:benchmarks python -m pytest -q benchmarks/paper/bench_*.py``
prints the reproduced tables, not just pass/fail.
"""

from __future__ import annotations

from pathlib import Path

import pytest

_OUT_DIR = Path(__file__).parent / "out"
_REPORTS: list[tuple[str, str]] = []


@pytest.fixture()
def report(request):
    """Callable recording a rendered table under the test's name."""

    def _record(text: str, name: str | None = None) -> None:
        key = name or request.node.name
        _OUT_DIR.mkdir(exist_ok=True)
        (_OUT_DIR / f"{key}.txt").write_text(text)
        _REPORTS.append((key, text))

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.write_sep("=", "reproduced tables & figures")
    for name, text in _REPORTS:
        terminalreporter.write_line("")
        terminalreporter.write_line(text)
