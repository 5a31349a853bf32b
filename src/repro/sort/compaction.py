"""Prefix-sum compaction of sparse per-window results (Section 5.4).

The query kernel writes each window's location list into a fixed-size
row of a result matrix (rows = windows, width = worst-case capacity).
A prefix sum over per-window counts then drives a gather that packs
the lists densely, and the window->read mapping collapses into read
segment offsets for the segmented sort.
"""

from __future__ import annotations

import numpy as np

from repro.util.scan import exclusive_prefix_sum
from repro.util.segmented import offsets_from_segment_ids

__all__ = ["compact_rows", "read_segment_offsets"]


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


def read_segment_offsets(
    window_read_ids: np.ndarray,
    window_counts: np.ndarray,
    n_reads: int,
) -> np.ndarray:
    """Per-read offsets over the compacted location array.

    The compaction kernel "checks if consecutive windows originate
    from the same read to calculate the segment boundaries needed for
    the sorting step" -- this is that calculation: window location
    counts grouped by read id, returned as an offsets array of length
    ``n_reads + 1`` over the flat compacted values.

    The compacted values are in window order, so the segments are only
    the reads' lists when the read ids never decrease (every sketch
    kernel emits them that way); ``ValueError`` otherwise, and for ids
    outside ``[0, n_reads)``.
    """
    window_read_ids = np.asarray(window_read_ids, dtype=np.int64)
    window_counts = np.asarray(window_counts, dtype=np.int64)
    if window_read_ids.shape != window_counts.shape:
        raise ValueError("window_read_ids and window_counts must match")
    if window_read_ids.size:
        if bool((window_read_ids[1:] < window_read_ids[:-1]).any()):
            raise ValueError("window_read_ids must be non-decreasing")
        if window_read_ids[0] < 0 or window_read_ids[-1] >= n_reads:
            raise ValueError(f"window_read_ids must lie in [0, {n_reads})")
    return offsets_from_segment_ids(window_read_ids, n_reads, window_counts)
