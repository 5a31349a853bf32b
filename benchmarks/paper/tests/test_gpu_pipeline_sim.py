"""Tests for the compaction-kernel emulation, its one-gather oracle
:func:`compact_rows` and the stream-overlap pipeline simulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paper.gpu.kernels.compact_kernel import block_compact_windows, compact_rows
from paper.gpu.pipeline_sim import BatchPipelineSim


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


class TestCompactKernel:
    def _random_case(self, seed, n_windows, width):
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 1000, (n_windows, width)).astype(np.uint64)
        counts = rng.integers(0, width + 1, n_windows)
        reads = np.sort(rng.integers(0, max(1, n_windows // 2), n_windows))
        return matrix, counts, reads

    def test_matches_production_compaction(self):
        matrix, counts, reads = self._random_case(0, 20, 7)
        dense, offsets, _ = block_compact_windows(matrix, counts, reads)
        expected_dense, expected_offsets = compact_rows(matrix, counts)
        assert np.array_equal(dense, expected_dense)
        assert np.array_equal(offsets, expected_offsets)

    @given(st.integers(0, 1000), st.integers(1, 30), st.integers(1, 80))
    @settings(max_examples=30, deadline=None)
    def test_matches_production_property(self, seed, n_windows, width):
        matrix, counts, reads = self._random_case(seed, n_windows, width)
        dense, offsets, _ = block_compact_windows(matrix, counts, reads)
        expected_dense, expected_offsets = compact_rows(matrix, counts)
        assert np.array_equal(dense, expected_dense)
        assert np.array_equal(offsets, expected_offsets)

    def test_read_boundaries(self):
        matrix = np.zeros((4, 2), dtype=np.uint64)
        counts = np.ones(4, dtype=np.int64)
        reads = np.array([0, 0, 1, 2])
        _, _, boundary = block_compact_windows(matrix, counts, reads)
        assert list(boundary) == [True, False, True, True]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            block_compact_windows(
                np.zeros((2, 2), dtype=np.uint64), np.zeros(3), np.zeros(2)
            )


class TestBatchPipelineSim:
    def test_perfect_overlap(self):
        """Equal copy/compute times: makespan ~ busy + one bubble."""
        sim = BatchPipelineSim(n_buffers=2)
        res = sim.run([1.0] * 10, [1.0] * 10)
        # lower bound: 10s of compute + the first copy
        assert res.makespan == pytest.approx(11.0)
        assert res.overlap_efficiency > 0.9

    def test_compute_bound(self):
        sim = BatchPipelineSim(n_buffers=2)
        res = sim.run([0.1] * 10, [1.0] * 10)
        # compute dominates: makespan ~= first copy + total compute
        assert res.makespan == pytest.approx(0.1 + 10.0)

    def test_copy_bound(self):
        sim = BatchPipelineSim(n_buffers=2)
        res = sim.run([1.0] * 10, [0.1] * 10)
        assert res.makespan == pytest.approx(10.0 + 0.1)

    def test_single_buffer_serializes(self):
        """With one buffer there is no overlap at all."""
        sim = BatchPipelineSim(n_buffers=1)
        res = sim.run([1.0] * 5, [1.0] * 5)
        assert res.makespan == pytest.approx(10.0)
        more_buffers = BatchPipelineSim(n_buffers=2).run([1.0] * 5, [1.0] * 5)
        assert more_buffers.makespan < res.makespan

    def test_empty_run(self):
        res = BatchPipelineSim().run([], [])
        assert res.makespan == 0.0
        assert res.overlap_efficiency == 1.0

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            BatchPipelineSim().run([1.0], [1.0, 2.0])

    def test_invalid_buffers(self):
        with pytest.raises(ValueError):
            BatchPipelineSim(n_buffers=0)

    @given(
        st.lists(st.floats(0.01, 5.0), min_size=1, max_size=20),
        st.lists(st.floats(0.01, 5.0), min_size=1, max_size=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_makespan_bounds_property(self, copies, computes):
        n = min(len(copies), len(computes))
        copies, computes = copies[:n], computes[:n]
        res = BatchPipelineSim(n_buffers=2).run(copies, computes)
        # never faster than either stream's total work...
        assert res.makespan >= max(sum(copies), sum(computes)) - 1e-9
        # ...never slower than fully serialized execution
        assert res.makespan <= sum(copies) + sum(computes) + 1e-9