"""Tests for bitonic sort, segmented sort and compaction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.kernels.bitonic import bitonic_compare_exchange_steps, bitonic_sort_rows
from repro.gpu.kernels.segmented_sort_kernel import (
    plan_bins,
    segmented_sort,
    segmented_sort_reference,
)
from repro.sort.compaction import compact_rows, read_segment_offsets
from repro.sort.segmented import segmented_sort_lexsort
from repro.util.scan import exclusive_prefix_sum


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


def random_segments(seed, n_seg, max_len):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(0, max_len + 1, size=n_seg)
    offsets = exclusive_prefix_sum(lengths)
    values = rng.integers(0, 10_000, size=int(offsets[-1])).astype(np.uint64)
    return values, offsets


class TestSegmentedSort:
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

    @given(st.integers(0, 10_000), st.integers(1, 40), st.integers(0, 150))
    @settings(max_examples=40, deadline=None)
    def test_lexsort_matches_reference(self, seed, n_seg, max_len):
        values, offsets = random_segments(seed, n_seg, max_len)
        out = segmented_sort_lexsort(values, offsets)
        assert np.array_equal(out, segmented_sort_reference(values, offsets))

    def test_lexsort_empty(self):
        out = segmented_sort_lexsort(np.zeros(0, dtype=np.uint64), np.array([0]))
        assert out.size == 0

    def test_plan_binning(self):
        lengths = np.array([0, 5, 40, 200, 5000])
        plan = plan_bins(lengths, bitonic_threshold=1024, min_bin_width=32)
        assert 32 in plan.bins and list(plan.bins[32]) == [1]
        assert 64 in plan.bins and list(plan.bins[64]) == [2]
        assert 256 in plan.bins and list(plan.bins[256]) == [3]
        assert list(plan.large) == [4]
        # empty segment assigned nowhere
        assert plan.n_binned_segments == 3


class TestCompaction:
    def test_compact(self):
        m = np.array([[1, 2, 0], [9, 0, 0], [4, 5, 6]], dtype=np.uint64)
        counts = np.array([2, 1, 3])
        flat, offsets = compact_rows(m, counts)
        assert list(flat) == [1, 2, 9, 4, 5, 6]
        assert list(offsets) == [0, 2, 3, 6]

    def test_zero_counts(self):
        m = np.zeros((2, 4), dtype=np.uint64)
        flat, offsets = compact_rows(m, np.array([0, 0]))
        assert flat.size == 0
        assert list(offsets) == [0, 0, 0]

    def test_count_too_large(self):
        with pytest.raises(ValueError):
            compact_rows(np.zeros((1, 2)), np.array([3]))

    def test_count_shape_mismatch(self):
        with pytest.raises(ValueError):
            compact_rows(np.zeros((2, 2)), np.array([1]))

    def test_read_segment_offsets(self):
        # 4 windows on 3 reads: read0 has 2 windows (3+1 locs),
        # read1 has 1 window (2 locs), read2 has 1 window (0 locs)
        win_reads = np.array([0, 0, 1, 2])
        win_counts = np.array([3, 1, 2, 0])
        off = read_segment_offsets(win_reads, win_counts, 3)
        assert list(off) == [0, 4, 6, 6]

    def test_read_without_windows(self):
        off = read_segment_offsets(np.array([0, 2]), np.array([1, 1]), 4)
        assert list(off) == [0, 1, 1, 2, 2]

    def test_no_windows_at_all(self):
        off = read_segment_offsets(np.zeros(0, dtype=np.int64), np.zeros(0), 3)
        assert off.dtype == np.int64 and list(off) == [0, 0, 0, 0]

    def test_rejects_decreasing_read_ids(self):
        # the compacted values are in window order: read 1's windows
        # before read 0's would put read 0's offsets over read 1's values
        with pytest.raises(ValueError, match="non-decreasing"):
            read_segment_offsets(np.array([0, 1, 0]), np.array([2, 1, 1]), 2)

    @pytest.mark.parametrize("ids", [[-1, 0], [0, 3]])
    def test_rejects_read_ids_out_of_range(self, ids):
        with pytest.raises(ValueError, match="must lie in"):
            read_segment_offsets(np.array(ids), np.array([1, 1]), 3)

    def test_exact_past_float_precision(self):
        # counts whose sum a float64 accumulator would round
        counts = np.array([2**53, 1, 1], dtype=np.int64)
        off = read_segment_offsets(np.array([0, 0, 1]), counts, 2)
        assert off.tolist() == [0, 2**53 + 1, 2**53 + 2]
