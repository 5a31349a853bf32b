"""Coverage for the smaller utilities: timers, RNG derivation and the
numpy floor."""

import time

import numpy as np
import pytest

from repro.util.rng import derive_rng
from repro.util.timer import StageTimer, Timer


class TestTimers:
    def test_timer_accumulates(self):
        t = Timer()
        with t:
            time.sleep(0.01)
        first = t.elapsed
        with t:
            time.sleep(0.01)
        assert t.elapsed > first

    def test_timer_stop_without_start(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_stage_timer_shares(self):
        st = StageTimer()
        st.add("a", 3.0)
        st.add("b", 1.0)
        shares = st.shares()
        assert shares["a"] == pytest.approx(0.75)
        assert st.total == pytest.approx(4.0)

    def test_stage_timer_empty_shares(self):
        assert StageTimer().shares() == {}

    def test_stage_timer_merge(self):
        a = StageTimer()
        a.add("x", 1.0)
        b = StageTimer()
        b.add("x", 2.0)
        b.add("y", 1.0)
        a.merge(b)
        assert a.stages == {"x": 3.0, "y": 1.0}

    def test_stage_context_manager(self):
        st = StageTimer()
        with st.stage("work"):
            time.sleep(0.005)
        assert st.stages["work"] > 0


class TestDeriveRng:
    def test_same_keys_same_stream(self):
        a = derive_rng(5, "x", 1).integers(0, 100, 10)
        b = derive_rng(5, "x", 1).integers(0, 100, 10)
        assert np.array_equal(a, b)

    def test_different_keys_differ(self):
        a = derive_rng(5, "x").integers(0, 1000, 20)
        b = derive_rng(5, "y").integers(0, 1000, 20)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(1)
        assert derive_rng(g) is g


def test_installed_numpy_meets_install_requires():
    """setup.py's floor is the one the code relies on (fast ``ufunc.at``)."""
    import re
    from pathlib import Path

    setup_py = (Path(__file__).parent.parent / "setup.py").read_text()
    floor = re.search(r'"numpy>=(\d+)\.(\d+)"', setup_py).groups()
    assert tuple(map(int, np.__version__.split(".")[:2])) >= tuple(map(int, floor)) >= (1, 25)
