"""Segmented (per-group) array primitives.

The GPU query pipeline operates on *batches*: one flat array holding
the concatenated per-read data plus a parallel array of segment ids
(or an offsets array).  These helpers provide the segmented analogues
of reduce / rank / top-k that the kernels need, all without Python
loops so they stay fast on millions of elements.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "run_length_encode",
    "segment_boundaries",
    "segmented_cumcount",
    "segment_ids_from_offsets",
    "segment_ramp",
    "gather_segments",
    "offsets_from_segment_ids",
    "first_occurrence_mask",
]


def run_length_encode(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapse runs of equal adjacent elements.

    Returns ``(unique_in_order, counts)``.  Unlike ``np.unique`` the
    input is *not* sorted first -- only adjacent duplicates merge,
    which is exactly the semantics of the segmented-reduction step in
    the top-candidate kernel (the input there is already sorted).
    """
    v = np.asarray(values)
    if v.size == 0:
        return v[:0], np.zeros(0, dtype=np.int64)
    new_run = np.empty(v.size, dtype=bool)
    new_run[0] = True
    np.not_equal(v[1:], v[:-1], out=new_run[1:])
    starts = np.flatnonzero(new_run)
    counts = np.diff(np.append(starts, v.size))
    return v[starts], counts


def segment_boundaries(segment_ids: np.ndarray) -> np.ndarray:
    """Start indices of each maximal run of equal segment ids."""
    s = np.asarray(segment_ids)
    if s.size == 0:
        return np.zeros(0, dtype=np.int64)
    new_seg = np.empty(s.size, dtype=bool)
    new_seg[0] = True
    np.not_equal(s[1:], s[:-1], out=new_seg[1:])
    return np.flatnonzero(new_seg)


def segmented_cumcount(segment_ids: np.ndarray) -> np.ndarray:
    """Rank of each element within its (contiguous) segment, 0-based.

    ``segment_ids`` must be grouped (all equal ids adjacent); the ids
    themselves need not be sorted.
    """
    _, run_lengths = run_length_encode(segment_ids)
    return segment_ramp(run_lengths)


def segment_ids_from_offsets(offsets: np.ndarray) -> np.ndarray:
    """Expand an offsets array (len n+1) into per-element segment ids.

    ``offsets[i]:offsets[i+1]`` is segment ``i``; empty segments are
    allowed and simply produce no elements.
    """
    off = np.asarray(offsets, dtype=np.int64)
    total = int(off[-1])
    ids = np.zeros(total, dtype=np.int64)
    lengths = np.diff(off)
    seg_indices = np.flatnonzero(lengths > 0)
    if seg_indices.size == 0:
        return ids
    starts_ne = off[:-1][seg_indices]
    # Scatter id *increments* so empty segments are skipped correctly:
    # after cumsum-1, elements of segment j hold exactly seg_indices[j].
    increments = np.diff(seg_indices, prepend=np.int64(-1))
    ids[starts_ne] = increments
    return np.cumsum(ids) - 1


def segment_ramp(lengths: np.ndarray) -> np.ndarray:
    """``[0..l0-1, 0..l1-1, ...]``: each element's rank in its segment.

    Zero-length segments contribute nothing.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    seg_starts = np.cumsum(lengths) - lengths
    return np.arange(total, dtype=np.int64) - np.repeat(seg_starts, lengths)


#: positions added to a gather index per step: the one temporary a
#: gather holds besides its index and output (256 KiB)
_RAMP_BLOCK = 1 << 15


def gather_segments(
    values: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Concatenate the slices ``values[s : s + l]`` of every ``(s, l)``.

    Output element ``i`` of segment ``j`` reads ``values[i + starts[j]
    - out_starts[j]]``: one ``repeat`` of the per-segment shift is the
    index, the output positions ``i`` are added to it in place, one
    block of :data:`_RAMP_BLOCK` at a time (an ``arange`` of the whole
    index would double the gather's temporaries), and one ``take``
    gathers it.  Zero-length segments contribute nothing.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    shift = np.asarray(starts, dtype=np.int64) + lengths
    shift -= np.cumsum(lengths)
    index = np.repeat(shift, lengths)
    del shift
    ramp = np.arange(min(index.size, _RAMP_BLOCK), dtype=np.int64)
    for block in range(0, index.size, _RAMP_BLOCK):
        index[block : block + _RAMP_BLOCK] += ramp[: index.size - block]
        ramp += _RAMP_BLOCK
    return np.asarray(values).take(index)


def offsets_from_segment_ids(
    segment_ids: np.ndarray, n_segments: int, weights: np.ndarray | None = None
) -> np.ndarray:
    """Inverse of :func:`segment_ids_from_offsets` (ids must be sorted).

    With ``weights``, item ``i`` of segment ``segment_ids[i]`` stands for
    ``weights[i]`` elements: the offsets are the int64 running sum of
    the weights read at each segment's first item (exact at any size,
    unlike a float-weighted ``bincount``).
    """
    s = np.asarray(segment_ids, dtype=np.int64)
    firsts = np.searchsorted(s, np.arange(n_segments + 1))
    if weights is None:
        return firsts
    ends = np.zeros(s.size + 1, dtype=np.int64)
    np.cumsum(weights, out=ends[1:])
    return ends.take(firsts)


def first_occurrence_mask(sorted_values: np.ndarray) -> np.ndarray:
    """Boolean mask of the first element of each run in a sorted array."""
    v = np.asarray(sorted_values)
    if v.size == 0:
        return np.zeros(0, dtype=bool)
    mask = np.empty(v.size, dtype=bool)
    mask[0] = True
    np.not_equal(v[1:], v[:-1], out=mask[1:])
    return mask
