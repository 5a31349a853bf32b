"""Tests for segmented array primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.query_tail import segmented_top_k_mask
from repro.util.scan import exclusive_prefix_sum
from repro.util.segmented import (
    first_occurrence_mask,
    gather_segments,
    offsets_from_segment_ids,
    run_length_encode,
    segment_boundaries,
    segment_ids_from_offsets,
    segmented_cumcount,
)


class TestRunLengthEncode:
    def test_empty(self):
        vals, counts = run_length_encode(np.array([], dtype=np.int64))
        assert vals.size == 0 and counts.size == 0

    def test_basic(self):
        vals, counts = run_length_encode(np.array([5, 5, 2, 2, 2, 7]))
        assert list(vals) == [5, 2, 7]
        assert list(counts) == [2, 3, 1]

    def test_adjacent_only(self):
        # non-adjacent duplicates are NOT merged (unlike np.unique)
        vals, counts = run_length_encode(np.array([1, 2, 1]))
        assert list(vals) == [1, 2, 1]
        assert list(counts) == [1, 1, 1]

    @given(st.lists(st.integers(0, 5), max_size=200))
    @settings(max_examples=50)
    def test_reconstruction(self, values):
        v = np.array(values, dtype=np.int64)
        vals, counts = run_length_encode(v)
        assert np.array_equal(np.repeat(vals, counts), v)
        # no two adjacent encoded values equal
        if vals.size > 1:
            assert (vals[1:] != vals[:-1]).all()


class TestSegmentOps:
    def test_boundaries(self):
        s = np.array([3, 3, 1, 1, 1, 9])
        assert list(segment_boundaries(s)) == [0, 2, 5]

    def test_cumcount(self):
        s = np.array([0, 0, 0, 4, 4, 7])
        assert list(segmented_cumcount(s)) == [0, 1, 2, 0, 1, 0]

    @pytest.mark.parametrize(
        "ids, ranks",
        [([], []), ([5, 5, 5, 5], [0, 1, 2, 3]), ([4, 2, 9, 2], [0, 0, 0, 0])],
        ids=["empty", "single-run", "all-singletons"],
    )
    def test_cumcount_degenerate_runs(self, ids, ranks):
        got = segmented_cumcount(np.array(ids, dtype=np.int64))
        assert got.dtype == np.int64 and got.tolist() == ranks

    def test_offsets_roundtrip(self):
        offsets = np.array([0, 3, 3, 5, 9])
        ids = segment_ids_from_offsets(offsets)
        assert list(ids) == [0, 0, 0, 2, 2, 3, 3, 3, 3]
        back = offsets_from_segment_ids(ids, 4)
        assert np.array_equal(back, offsets)

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_offsets_roundtrip_property(self, lengths):
        offsets = exclusive_prefix_sum(np.array(lengths))
        ids = segment_ids_from_offsets(offsets)
        assert ids.size == sum(lengths)
        assert np.array_equal(offsets_from_segment_ids(ids, len(lengths)), offsets)

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 9)), max_size=30))
    @settings(max_examples=50)
    def test_weighted_offsets_match_a_scatter_add(self, items):
        items.sort(key=lambda item: item[0])
        ids = np.array([i for i, _ in items], dtype=np.int64)
        weights = np.array([w for _, w in items], dtype=np.int64)
        per_segment = np.zeros(6, dtype=np.int64)
        np.add.at(per_segment, ids, weights)
        got = offsets_from_segment_ids(ids, 6, weights)
        assert got.dtype == np.int64
        assert np.array_equal(got, exclusive_prefix_sum(per_segment))


class TestGatherSegments:
    @given(
        st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20),
        st.lists(st.tuples(st.integers(0, 19), st.integers(0, 20)), max_size=12),
    )
    @settings(max_examples=80)
    def test_concatenates_the_slices(self, values, segments):
        values = np.array(values, dtype=np.uint64)
        segments = [(s % values.size, l) for s, l in segments]
        segments = [(s, min(l, values.size - s)) for s, l in segments]
        starts = np.array([s for s, _ in segments], dtype=np.int64)
        lengths = np.array([l for _, l in segments], dtype=np.int64)
        got = gather_segments(values, starts, lengths)
        want = [v for s, l in segments for v in values[s : s + l]]
        assert got.dtype == np.uint64 and got.tolist() == [int(v) for v in want]

    def test_memmap_source_gives_a_plain_array(self, tmp_path):
        np.save(tmp_path / "v.npy", np.arange(10, dtype=np.uint64))
        mapped = np.load(tmp_path / "v.npy", mmap_mode="r")
        got = gather_segments(mapped, np.array([7, 0]), np.array([3, 2]))
        assert type(got) is np.ndarray and got.tolist() == [7, 8, 9, 0, 1]


class TestScans:
    def test_exclusive(self):
        out = exclusive_prefix_sum(np.array([2, 0, 5]))
        assert list(out) == [0, 2, 2, 7]

    def test_empty(self):
        assert list(exclusive_prefix_sum(np.array([], dtype=np.int64))) == [0]


class TestFirstOccurrence:
    def test_basic(self):
        mask = first_occurrence_mask(np.array([1, 1, 2, 3, 3, 3]))
        assert list(mask) == [True, False, True, True, False, False]


class TestSegmentedTopK:
    """The oracle's top-k helper (``tests/reference/query_tail.py``).

    Production selects top-m with one single-key sort inside
    ``generate_top_candidates``; these pin the tie-break the oracle,
    and therefore the equivalence harness, holds it to.
    """

    def test_selects_k_best_per_segment(self):
        seg = np.array([0, 0, 0, 1, 1])
        scores = np.array([5.0, 9.0, 7.0, 1.0, 2.0])
        mask = segmented_top_k_mask(seg, scores, 2)
        assert list(mask) == [False, True, True, False, True] or list(mask) == [
            False,
            True,
            True,
            True,
            True,
        ]
        # exactly 2 in segment 0, and both elements of segment 1 (only 2 exist)
        assert mask[:3].sum() == 2
        assert mask[1] and mask[2]

    def test_ties_prefer_earlier_index(self):
        seg = np.zeros(3, dtype=np.int64)
        scores = np.array([4.0, 4.0, 4.0])
        mask = segmented_top_k_mask(seg, scores, 2)
        assert list(mask) == [True, True, False]

    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=60),
        st.integers(1, 4),
    )
    @settings(max_examples=50)
    def test_count_per_segment_never_exceeds_k(self, seg_list, k):
        seg = np.sort(np.array(seg_list, dtype=np.int64))
        rng = np.random.default_rng(0)
        scores = rng.random(seg.size)
        mask = segmented_top_k_mask(seg, scores, k)
        for s in np.unique(seg):
            sel = mask[seg == s]
            expected = min(k, (seg == s).sum())
            assert sel.sum() == expected
