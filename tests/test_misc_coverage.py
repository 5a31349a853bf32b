"""Coverage for the smaller utilities: ring-merge traces, timers,
table renderers, RNG derivation and the cost model's workload shape."""

import time

import numpy as np
import pytest

from repro.bench.tables import format_bytes, format_seconds, render_bars, render_table
from repro.core.candidates import Candidates
from repro.gpu.costmodel import WorkloadShape
from repro.gpu.multi_gpu import ring_merge_candidates
from repro.gpu.topology import MultiGpuNode
from repro.util.rng import derive_rng
from repro.util.timer import StageTimer, Timer


def _cands(scores):
    n = len(scores)
    return Candidates(
        target=np.arange(n, dtype=np.uint32).reshape(n, 1),
        window_first=np.zeros((n, 1), dtype=np.uint32),
        window_last=np.zeros((n, 1), dtype=np.uint32),
        score=np.array(scores, dtype=np.int64).reshape(n, 1),
        valid=np.array([s > 0 for s in scores]).reshape(n, 1),
    )


class TestRingMerge:
    def test_merges_and_traces(self):
        node = MultiGpuNode.dgx1(3)
        per_dev = [_cands([5, 0]), _cands([2, 9]), _cands([1, 1])]
        merged, trace = ring_merge_candidates(
            node, per_dev, sketch_bytes=10**6, tophit_bytes_per_read=64
        )
        assert merged.score[0, 0] == 5
        assert merged.score[1, 0] == 9
        assert trace.total_transfer_seconds > 0
        assert len(trace.forward_times) == 2  # two hops on three devices
        assert trace.merge_order == [0, 1, 2]

    def test_wrong_device_count(self):
        node = MultiGpuNode.dgx1(2)
        with pytest.raises(ValueError):
            ring_merge_candidates(node, [_cands([1])])

    def test_single_device_passthrough(self):
        node = MultiGpuNode.dgx1(1)
        merged, trace = ring_merge_candidates(node, [_cands([3])])
        assert merged.score[0, 0] == 3
        assert trace.total_transfer_seconds == 0.0


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


class TestRenderers:
    def test_format_seconds_ranges(self):
        assert format_seconds(2e-7) == "0 us"
        assert format_seconds(0.005) == "5.0 ms"
        assert format_seconds(3.2) == "3.2 s"
        assert format_seconds(300) == "5 min"
        assert format_seconds(8000) == "2.2 h"
        assert format_seconds(float("nan")) == "-"

    def test_format_bytes(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(2048) == "2.0 KB"
        assert "GB" in format_bytes(3 * 1024**3)

    def test_render_table_alignment(self):
        out = render_table("T", ["name", "val"], [["a", 1], ["long-name", 22]])
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "long-name" in out
        # all rows same width
        widths = {len(l) for l in lines[2:]}
        assert len(widths) == 1

    def test_render_bars(self):
        out = render_bars("B", [("x", 2.0), ("y", 1.0)])
        assert out.count("#") > 0
        x_line = [l for l in out.splitlines() if l.startswith("x")][0]
        y_line = [l for l in out.splitlines() if l.startswith("y")][0]
        assert x_line.count("#") > y_line.count("#")

    def test_render_bars_empty(self):
        assert "(no data)" in render_bars("B", [])


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


class TestWorkloadShape:
    def test_cpu_locations_default(self):
        s = WorkloadShape(n_reads=10, total_read_bases=1000,
                          avg_locations_per_read=50)
        assert s.cpu_locations == 50

    def test_cpu_locations_override(self):
        s = WorkloadShape(
            n_reads=10, total_read_bases=1000,
            avg_locations_per_read=50, cpu_avg_locations_per_read=5,
        )
        assert s.cpu_locations == 5


def test_installed_numpy_meets_install_requires():
    """setup.py's floor is the one the code relies on (fast ``ufunc.at``)."""
    import re
    from pathlib import Path

    setup_py = (Path(__file__).parent.parent / "setup.py").read_text()
    floor = re.search(r'"numpy>=(\d+)\.(\d+)"', setup_py).groups()
    assert tuple(map(int, np.__version__.split(".")[:2])) >= tuple(map(int, floor)) >= (1, 25)
