"""Size-binned segmented sort (key-only), after Hou et al. [12].

The location lists produced by database queries vary wildly in length
(most reads hit few locations, some hit thousands -- the skew of
Section 5.5).  Sorting every segment with one generic routine wastes
work; instead segments are binned by size class and each bin is
sorted by a kernel specialized for that class:

- small bins (width <= ``bitonic_threshold``): all segments of the
  bin are packed into one padded matrix and sorted by a *single*
  batched bitonic network -- the vectorized analogue of the
  register/warp-shuffle kernels of the original;
- large segments: per-segment ``np.sort`` (the original dispatches
  these to a global-memory merge sort).

``segmented_sort_reference`` is the obviously-correct comparison
implementation used by property tests and as the ablation baseline.

This is the *kernel structure* of the device sort, kept beside the
other kernel emulations for the ablation and Fig. 5 benches; the query
pipeline runs :func:`repro.sort.segmented_sort_lexsort`, one
single-key ``np.sort`` (on a real GPU the binned network wins,
Section 5.5; under NumPy it pays interpreter overhead per network
step).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gpu.kernels.bitonic import bitonic_sort_rows

__all__ = ["SegmentedSortPlan", "plan_bins", "segmented_sort", "segmented_sort_reference"]


@dataclass
class SegmentedSortPlan:
    """Execution plan: which segments land in which size bin.

    Exposed so the Fig. 5 instrumentation and the ablation bench can
    report per-bin work; ``bins`` maps bin width -> segment indices.
    """

    bins: dict[int, np.ndarray] = field(default_factory=dict)
    large: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    @property
    def n_binned_segments(self) -> int:
        return int(sum(v.size for v in self.bins.values()))


def plan_bins(
    lengths: np.ndarray, bitonic_threshold: int, min_bin_width: int = 32
) -> SegmentedSortPlan:
    """Assign each segment to the smallest power-of-two bin that fits."""
    plan = SegmentedSortPlan()
    if lengths.size == 0:
        return plan
    width = min_bin_width
    assigned = lengths <= 0  # empty segments need no work
    while width <= bitonic_threshold:
        in_bin = (~assigned) & (lengths <= width)
        if in_bin.any():
            plan.bins[width] = np.flatnonzero(in_bin)
            assigned |= in_bin
        width *= 2
    plan.large = np.flatnonzero(~assigned)
    return plan


def segmented_sort(
    values: np.ndarray,
    offsets: np.ndarray,
    bitonic_threshold: int = 1024,
) -> np.ndarray:
    """Sort each segment of ``values`` ascending; returns a new array.

    ``offsets`` has length ``n_segments + 1``; segment ``i`` spans
    ``values[offsets[i]:offsets[i+1]]``.  Stable *within equal keys*
    is not guaranteed (neither is the GPU network sort); the pipeline
    only needs value order.
    """
    v = np.asarray(values)
    offsets = np.asarray(offsets, dtype=np.int64)
    out = v.copy()
    n_seg = offsets.size - 1
    if n_seg <= 0 or v.size == 0:
        return out
    starts = offsets[:-1]
    lengths = np.diff(offsets)
    plan = plan_bins(lengths, bitonic_threshold)
    if np.issubdtype(v.dtype, np.integer):
        pad = np.iinfo(v.dtype).max
    else:
        pad = np.inf
    for width, seg_idx in plan.bins.items():
        s = starts[seg_idx]
        l = lengths[seg_idx]
        cols = np.arange(width, dtype=np.int64)
        gidx = s[:, None] + cols[None, :]
        valid = cols[None, :] < l[:, None]
        gidx_safe = np.where(valid, gidx, 0)
        matrix = np.where(valid, v[gidx_safe], pad)
        sorted_matrix = bitonic_sort_rows(matrix, pad_value=pad)
        out[gidx_safe[valid]] = sorted_matrix[valid]
    for i in plan.large:
        a, b = int(offsets[i]), int(offsets[i + 1])
        out[a:b] = np.sort(v[a:b])
    return out


def segmented_sort_reference(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Reference implementation: independent np.sort per segment."""
    v = np.asarray(values)
    out = v.copy()
    offsets = np.asarray(offsets, dtype=np.int64)
    for i in range(offsets.size - 1):
        a, b = int(offsets[i]), int(offsets[i + 1])
        out[a:b] = np.sort(v[a:b])
    return out
