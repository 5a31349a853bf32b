"""Warp/block emulation of the compaction kernel (Section 5.4).

"The compaction kernel uses one thread block per window to copy the
locations from the result array from the first kernel to a dense
array.  The induced alignment allows each thread to efficiently copy
two locations at once ... The kernel also checks if consecutive
windows originate from the same read to calculate the segment
boundaries needed for the sorting step."

The emulation executes exactly that schedule: a prefix sum supplies
each block's output offset, every block's threads copy paired
elements, and read-boundary flags are derived from neighbor-window
comparison.  Cross-checked against :func:`compact_rows`, the same
packing as one boolean-mask gather.
"""

from __future__ import annotations

import numpy as np

from repro.util.scan import exclusive_prefix_sum

__all__ = ["block_compact_windows", "compact_rows"]

_THREADS_PER_BLOCK = 32
_ELEMENTS_PER_THREAD = 2  # the paper's two-locations-per-thread copy


def block_compact_windows(
    result_matrix: np.ndarray,
    counts: np.ndarray,
    window_read_ids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One simulated thread block per window packs its locations.

    Parameters mirror the device buffers: ``result_matrix`` is the
    sparse (n_windows x max_locations) output of the query kernel,
    ``counts`` the per-window location counts, ``window_read_ids``
    the owning read of each window.

    Returns ``(dense, offsets, read_boundary)`` where ``dense`` is the
    packed location array, ``offsets`` the per-window output offsets
    (from the prefix sum) and ``read_boundary[i]`` flags windows that
    start a new read's segment.
    """
    counts = np.asarray(counts, dtype=np.int64)
    n_windows, width = result_matrix.shape
    if counts.size != n_windows or window_read_ids.size != n_windows:
        raise ValueError("counts/read ids must match the window count")
    offsets = exclusive_prefix_sum(counts)
    dense = np.empty(int(offsets[-1]), dtype=result_matrix.dtype)

    for block in range(n_windows):  # blocks (windows), scheduled freely
        c = int(counts[block])
        base = int(offsets[block])
        # threads copy strided pairs: thread t handles elements
        # [2t, 2t+1], [2(t+T), ...] etc. -- emulated pair-wise so the
        # access pattern (aligned pair copies) is preserved
        stride = _THREADS_PER_BLOCK * _ELEMENTS_PER_THREAD
        for start in range(0, c, stride):
            for t in range(_THREADS_PER_BLOCK):
                lo = start + t * _ELEMENTS_PER_THREAD
                if lo >= c:
                    break
                hi = min(lo + _ELEMENTS_PER_THREAD, c)
                dense[base + lo : base + hi] = result_matrix[block, lo:hi]

    # neighbor comparison: window i starts a read segment iff it is
    # the first window or its read differs from window i-1's
    read_boundary = np.empty(n_windows, dtype=bool)
    if n_windows:
        read_boundary[0] = True
        read_boundary[1:] = window_read_ids[1:] != window_read_ids[:-1]
    return dense, offsets, read_boundary


def compact_rows(
    matrix: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pack the first ``counts[i]`` entries of each row densely.

    Returns ``(flat, offsets)`` with ``offsets = exclusive prefix sum
    of counts`` -- row ``i``'s data is ``flat[offsets[i]:offsets[i+1]]``.
    """
    m = np.asarray(matrix)
    counts = np.asarray(counts, dtype=np.int64)
    if m.ndim != 2:
        raise ValueError("matrix must be 2-D")
    if counts.size != m.shape[0]:
        raise ValueError("counts length must equal number of rows")
    if (counts > m.shape[1]).any():
        raise ValueError("count exceeds row width")
    offsets = exclusive_prefix_sum(counts)
    cols = np.arange(m.shape[1], dtype=np.int64)
    take = cols[None, :] < counts[:, None]
    return m[take], offsets
