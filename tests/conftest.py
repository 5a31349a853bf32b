"""Shared test infrastructure: a per-test deadlock guard.

The serving layer introduces genuinely concurrent tests (an asyncio
server on a background thread, a micro-batcher, multi-process worker
pools).  A bug there tends to present as a *hang*, and a hung test
suite is the worst CI failure mode: no traceback, no culprit, a
wall-clock timeout at the job level an hour later.

``pytest-timeout`` is the usual answer but is not part of this
repo's dependency footprint, so this conftest implements the same
idea with the stdlib: a ``SIGALRM`` fires if a single test exceeds
its budget and raises inside the test, producing a normal failure
with the stack of wherever it was stuck.  Override per test with
``@pytest.mark.timeout(seconds)``; disable globally by setting the
environment variable ``REPRO_TEST_TIMEOUT=0`` (e.g. when stepping
through with a debugger).

The alarm is armed only on the main thread of the main interpreter
(a SIGALRM constraint) and only on platforms that have it -- other
configurations silently skip the guard rather than break the suite.

It also puts ``benchmarks/`` on the import path, so the few core tests
that drive a database through the simulated GPU (``paper.gpu``) run
under any invocation, not only when ``benchmarks/paper/tests/`` is
collected first.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
from pathlib import Path

import pytest

_BENCHMARKS = str(Path(__file__).resolve().parent.parent / "benchmarks")
if _BENCHMARKS not in sys.path:
    sys.path.insert(0, _BENCHMARKS)

DEFAULT_TIMEOUT_SECONDS = int(os.environ.get("REPRO_TEST_TIMEOUT", "300"))


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "timeout(seconds): override the per-test deadlock alarm "
        f"(default {DEFAULT_TIMEOUT_SECONDS}s; 0 disables)",
    )
    config.addinivalue_line(
        "markers",
        "slow: long-running test (worker-pool matrices, large sweeps); "
        "deselect with -m 'not slow' for a quick pass",
    )


@pytest.fixture(autouse=True)
def _deadlock_alarm(request):
    """Fail (not hang) any test that exceeds its time budget."""
    marker = request.node.get_closest_marker("timeout")
    seconds = (
        int(marker.args[0]) if marker and marker.args else DEFAULT_TIMEOUT_SECONDS
    )
    if (
        seconds <= 0
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_alarm(signum, frame):
        raise TimeoutError(
            f"test exceeded the {seconds}s deadlock alarm "
            "(override with @pytest.mark.timeout or REPRO_TEST_TIMEOUT)"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
