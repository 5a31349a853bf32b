"""Tests for the single-key segmented sort and read segment offsets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sort.compaction import read_segment_offsets
from repro.sort.segmented import segmented_sort_lexsort
from repro.util.scan import exclusive_prefix_sum


def random_segments(seed, n_seg, max_len):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(0, max_len + 1, size=n_seg)
    offsets = exclusive_prefix_sum(lengths)
    values = rng.integers(0, 10_000, size=int(offsets[-1])).astype(np.uint64)
    return values, offsets


def segmented_sort_reference(values, offsets):
    """Independent ``np.sort`` per segment."""
    out = values.copy()
    for a, b in zip(offsets[:-1], offsets[1:]):
        out[a:b] = np.sort(values[a:b])
    return out


class TestSegmentedSort:
    @given(st.integers(0, 10_000), st.integers(1, 40), st.integers(0, 150))
    @settings(max_examples=40, deadline=None)
    def test_lexsort_matches_reference(self, seed, n_seg, max_len):
        values, offsets = random_segments(seed, n_seg, max_len)
        out = segmented_sort_lexsort(values, offsets)
        assert np.array_equal(out, segmented_sort_reference(values, offsets))

    def test_lexsort_empty(self):
        out = segmented_sort_lexsort(np.zeros(0, dtype=np.uint64), np.array([0]))
        assert out.size == 0


class TestCompaction:
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
