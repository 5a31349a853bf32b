"""Tests of the paper projection on top of the production core.

Each test drives a :mod:`paper` piece -- the ring merge of Fig. 2, the
bitonic / binned segmented-sort kernel emulations, the table renderers
and the cost model's workload shape -- against :mod:`repro` code or its
output.  Placing a built database on simulated devices and the ring
query against the sequential one stay with the core tests they extend
(``tests/test_core_database.py``, ``tests/test_failure_injection.py``,
``tests/test_core_query_classify.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import Candidates
from repro.util.scan import exclusive_prefix_sum

from paper.bench.tables import format_bytes, format_seconds, render_bars, render_table
from paper.gpu.costmodel import WorkloadShape
from paper.gpu.kernels.bitonic import bitonic_compare_exchange_steps, bitonic_sort_rows
from paper.gpu.kernels.segmented_sort_kernel import (
    plan_bins,
    segmented_sort,
    segmented_sort_reference,
)
from paper.gpu.multi_gpu import ring_merge_candidates
from paper.gpu.topology import MultiGpuNode


def _cands(scores):
    n = len(scores)
    return Candidates(
        target=np.arange(n, dtype=np.uint32).reshape(n, 1),
        window_first=np.zeros((n, 1), dtype=np.uint32),
        window_last=np.zeros((n, 1), dtype=np.uint32),
        score=np.array(scores, dtype=np.int64).reshape(n, 1),
        valid=np.array([s > 0 for s in scores]).reshape(n, 1),
    )


def random_segments(seed, n_seg, max_len):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(0, max_len + 1, size=n_seg)
    offsets = exclusive_prefix_sum(lengths)
    values = rng.integers(0, 10_000, size=int(offsets[-1])).astype(np.uint64)
    return values, offsets


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


class TestBitonic:
    def test_network_width_must_be_pow2(self):
        with pytest.raises(ValueError):
            list(bitonic_compare_exchange_steps(6))

    def test_sorts_pow2_rows(self):
        rng = np.random.default_rng(0)
        m = rng.integers(0, 1000, size=(50, 16)).astype(np.uint64)
        out = bitonic_sort_rows(m)
        assert np.array_equal(out, np.sort(m, axis=1))

    def test_sorts_non_pow2_rows(self):
        rng = np.random.default_rng(1)
        m = rng.integers(0, 1000, size=(20, 13)).astype(np.uint64)
        out = bitonic_sort_rows(m)
        assert np.array_equal(out, np.sort(m, axis=1))

    def test_input_untouched(self):
        m = np.array([[3, 1, 2, 0]], dtype=np.int64)
        copy = m.copy()
        bitonic_sort_rows(m)
        assert np.array_equal(m, copy)

    def test_float_rows(self):
        rng = np.random.default_rng(2)
        m = rng.random((10, 7))
        out = bitonic_sort_rows(m)
        assert np.allclose(out, np.sort(m, axis=1))

    def test_empty(self):
        out = bitonic_sort_rows(np.zeros((0, 4), dtype=np.int64))
        assert out.shape == (0, 4)
        out = bitonic_sort_rows(np.zeros((3, 0), dtype=np.int64))
        assert out.shape == (3, 0)

    @given(st.integers(1, 40), st.integers(1, 33), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_npsort_property(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        m = rng.integers(0, 50, size=(rows, cols)).astype(np.uint64)
        assert np.array_equal(bitonic_sort_rows(m), np.sort(m, axis=1))

    def test_network_step_count(self):
        """Bitonic network has exactly log(n)*(log(n)+1)/2 stages."""
        for n in (2, 4, 8, 16, 32):
            steps = list(bitonic_compare_exchange_steps(n))
            log_n = n.bit_length() - 1
            assert len(steps) == log_n * (log_n + 1) // 2


class TestSegmentedSortKernel:
    def test_basic(self):
        values = np.array([5, 3, 9, 1, 2], dtype=np.uint64)
        offsets = np.array([0, 3, 5])
        out = segmented_sort(values, offsets)
        assert list(out) == [3, 5, 9, 1, 2]

    def test_empty_segments_ok(self):
        values = np.array([2, 1], dtype=np.uint64)
        offsets = np.array([0, 0, 2, 2])
        out = segmented_sort(values, offsets)
        assert list(out) == [1, 2]

    def test_no_segments(self):
        out = segmented_sort(np.zeros(0, dtype=np.uint64), np.array([0]))
        assert out.size == 0

    def test_large_segments_use_npsort(self):
        values, offsets = random_segments(3, 4, 5000)
        out = segmented_sort(values, offsets, bitonic_threshold=64)
        ref = segmented_sort_reference(values, offsets)
        assert np.array_equal(out, ref)

    @given(st.integers(0, 10_000), st.integers(1, 50), st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_property(self, seed, n_seg, max_len):
        values, offsets = random_segments(seed, n_seg, max_len)
        out = segmented_sort(values, offsets, bitonic_threshold=128)
        assert np.array_equal(out, segmented_sort_reference(values, offsets))

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_multiset_preserved(self, seed):
        values, offsets = random_segments(seed, 20, 100)
        out = segmented_sort(values, offsets)
        assert sorted(out.tolist()) == sorted(values.tolist())

    def test_plan_binning(self):
        lengths = np.array([0, 5, 40, 200, 5000])
        plan = plan_bins(lengths, bitonic_threshold=1024, min_bin_width=32)
        assert 32 in plan.bins and list(plan.bins[32]) == [1]
        assert 64 in plan.bins and list(plan.bins[64]) == [2]
        assert 256 in plan.bins and list(plan.bins[256]) == [3]
        assert list(plan.large) == [4]
        # empty segment assigned nowhere
        assert plan.n_binned_segments == 3


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

