"""Warp-level primitive emulation (32-lane SIMT semantics).

These functions operate on length-32 NumPy vectors, one element per
lane, reproducing the CUDA warp intrinsics the paper's kernels use:
``__shfl_xor_sync`` (butterfly exchange, Section 5.3's XOR shuffle
combine), ``__shfl_down/up_sync``, ``__ballot_sync``, and
warp-cooperative reductions.  They exist for *fidelity*: the kernel
emulations in :mod:`paper.gpu.kernels` are written against these and
cross-checked with the fast batch implementations, demonstrating the
vectorized pipeline computes exactly what the SIMT algorithm would.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "WARP_SIZE",
    "shfl_xor",
    "shfl_down",
    "shfl_up",
    "ballot",
    "warp_min",
    "warp_max",
    "warp_sum",
    "segmented_reduce_sum",
]

WARP_SIZE = 32


def _check_lanes(values: np.ndarray) -> np.ndarray:
    v = np.asarray(values)
    if v.shape[-1] != WARP_SIZE:
        raise ValueError(f"warp primitives need {WARP_SIZE} lanes, got {v.shape}")
    return v


def shfl_xor(values: np.ndarray, lane_mask: int) -> np.ndarray:
    """Butterfly exchange: lane i receives the value of lane i ^ mask."""
    v = _check_lanes(values)
    lanes = np.arange(WARP_SIZE)
    return v[..., lanes ^ lane_mask]


def shfl_down(values: np.ndarray, delta: int, fill=0) -> np.ndarray:
    """Lane i receives lane i+delta's value (out-of-range lanes get fill)."""
    v = _check_lanes(values)
    lanes = np.arange(WARP_SIZE) + delta
    ok = lanes < WARP_SIZE
    out = np.full_like(v, fill)
    out[..., ok] = v[..., lanes[ok]]
    return out


def shfl_up(values: np.ndarray, delta: int, fill=0) -> np.ndarray:
    """Lane i receives lane i-delta's value (out-of-range lanes get fill)."""
    v = _check_lanes(values)
    lanes = np.arange(WARP_SIZE) - delta
    ok = lanes >= 0
    out = np.full_like(v, fill)
    out[..., ok] = v[..., lanes[ok]]
    return out


def ballot(predicate: np.ndarray) -> int:
    """Pack the 32 lane predicates into a mask (lane 0 = bit 0)."""
    p = _check_lanes(predicate).astype(bool)
    return int(np.sum(p.astype(np.uint64) << np.arange(WARP_SIZE, dtype=np.uint64)))


def warp_min(values: np.ndarray):
    """Butterfly min-reduction: every lane ends with the warp minimum."""
    v = _check_lanes(values).copy()
    delta = WARP_SIZE // 2
    while delta >= 1:
        v = np.minimum(v, shfl_xor(v, delta))
        delta //= 2
    return v


def warp_max(values: np.ndarray):
    v = _check_lanes(values).copy()
    delta = WARP_SIZE // 2
    while delta >= 1:
        v = np.maximum(v, shfl_xor(v, delta))
        delta //= 2
    return v


def warp_sum(values: np.ndarray):
    v = _check_lanes(values).copy()
    delta = WARP_SIZE // 2
    while delta >= 1:
        v = v + shfl_xor(v, delta)
        delta //= 2
    return v


def segmented_reduce_sum(values: np.ndarray, segment_heads: np.ndarray) -> np.ndarray:
    """Head-flagged segmented sum across the warp.

    ``segment_heads[i]`` marks lane i as the first lane of a segment.
    Returns per-lane totals where each *head* lane holds its segment's
    sum (other lanes hold partial suffix sums, as the hardware
    algorithm leaves them).  This is the primitive the top-candidate
    kernel uses to accumulate hit counts of identical locations
    (Section 5.6).
    """
    v = _check_lanes(values).astype(np.int64).copy()
    heads = _check_lanes(segment_heads).astype(bool)
    # classic Kogge-Stone with boundary masking
    seg_id = np.cumsum(heads) - 1  # which segment each lane belongs to
    delta = 1
    while delta < WARP_SIZE:
        shifted = shfl_down(v, delta, fill=0)
        same_seg = np.zeros(WARP_SIZE, dtype=bool)
        lanes = np.arange(WARP_SIZE - delta)
        same_seg[lanes] = seg_id[lanes] == seg_id[lanes + delta]
        v = v + np.where(same_seg, shifted, 0)
        delta *= 2
    return v
