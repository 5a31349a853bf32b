"""Read segment offsets over compacted per-window results (Section 5.4).

The compaction step packs each window's location list densely; the
window->read mapping then collapses into read segment offsets for the
segmented sort.
"""

from __future__ import annotations

import numpy as np

from repro.util.segmented import offsets_from_segment_ids

__all__ = ["read_segment_offsets"]


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
