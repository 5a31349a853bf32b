"""Coverage for the smaller utilities: timers, RNG derivation, the
numpy floor and the heap thresholds sessions pin."""

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


def test_every_session_pins_the_heap_thresholds(monkeypatch):
    """A session's batch temporaries stay on the heap whatever the
    process allocated before it (glibc's mmap and trim thresholds),
    and what the heap holds free at the pin is returned with one trim."""
    from repro.api import MetaCache
    from repro.core.config import MetaCacheParams
    from repro.genomics.simulate import GenomeSimulator
    from repro.taxonomy.builder import build_taxonomy_for_genomes
    from repro.api import session as session_mod

    calls = []
    monkeypatch.setattr(session_mod, "_MALLOPT", lambda *args: calls.append(args))
    monkeypatch.setattr(
        session_mod, "_MALLOC_TRIM", lambda pad: calls.append(("trim", pad))
    )
    genomes = GenomeSimulator(seed=2).simulate_collection(1, 1, 2000)
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    mc = MetaCache.ephemeral(
        [("g", genomes[0].scaffolds[0], taxa.target_taxon[0])],
        taxonomy, params=MetaCacheParams.small(),
    )
    assert calls == []  # building and opening leave the allocator alone
    pin = [(-3, 32 << 20), (-1, 64 << 20), ("trim", 0)]
    mc.session()
    assert calls == pin  # the free heap is returned once, after the pin
    mc.session()
    assert calls == pin * 2
    # without glibc's mallopt (another libc) a session calls neither
    calls.clear()
    monkeypatch.setattr(session_mod, "_MALLOPT", None)
    mc.session()
    assert calls == []
