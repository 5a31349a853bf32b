"""The lexsort query tail (steps 6-8), kept verbatim as the oracle.

Before the single-key rewrite the segmented sort was a two-key
``np.lexsort((value, segment))`` and top-candidate generation ran
three more ``lexsort`` passes (per-run argmax, per-read top-``m``,
column ranking) plus a ``run_id * OFFSET`` monotonic window axis.
These functions are that code, moved out of ``src/`` unchanged:
``tests/test_query_tail_equivalence.py`` asserts the production
:func:`repro.sort.segmented_sort_lexsort` and
:func:`repro.core.candidates.generate_top_candidates` return the same
bytes.
"""

from __future__ import annotations

import numpy as np

from repro.core.candidates import Candidates
from repro.util.bitops import unpack_pairs
from repro.util.scan import exclusive_prefix_sum
from repro.util.segmented import (
    first_occurrence_mask,
    segment_ids_from_offsets,
    segmented_cumcount,
)

__all__ = [
    "segmented_sort_lexsort",
    "generate_top_candidates",
    "segmented_top_k_mask",
]


def segmented_sort_lexsort(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Global segmented sort via one ``np.lexsort`` over (segment, value).

    The production CPU-side choice: a single O(n log n) vectorized
    sort, independent of segment-count/size skew.  The bitonic-binned
    :func:`segmented_sort` reproduces the *GPU kernel structure* of
    Hou et al. but pays interpreter overhead per network step, so the
    query pipeline uses this one (the ablation bench quantifies the
    difference; on a real GPU the binned network wins, Section 5.5).
    """
    v = np.asarray(values)
    offsets = np.asarray(offsets, dtype=np.int64)
    if v.size == 0:
        return v.copy()
    seg = segment_ids_from_offsets(offsets)
    order = np.lexsort((v, seg))
    return v[order]


def segmented_top_k_mask(
    segment_ids: np.ndarray, scores: np.ndarray, k: int
) -> np.ndarray:
    """Select up to ``k`` highest-scoring elements per segment.

    Returns a boolean mask over the input.  Ties broken by original
    index (earlier element wins), mirroring the deterministic register
    top-list maintained per CUDA thread in the paper's kernel.
    """
    s = np.asarray(segment_ids, dtype=np.int64)
    if s.size == 0:
        return np.zeros(0, dtype=bool)
    sc = np.asarray(scores)
    # Sort by (segment, -score, index); then the first k per segment win.
    order = np.lexsort((np.arange(s.size), -sc, s))
    rank = segmented_cumcount(s[order])
    winners = order[rank < k]
    mask = np.zeros(s.size, dtype=bool)
    mask[winners] = True
    return mask


def generate_top_candidates(
    locations: np.ndarray,
    read_offsets: np.ndarray,
    sws: np.ndarray | int,
    m: int,
) -> Candidates:
    """Compute top-m candidates per read from *sorted* location lists.

    Parameters
    ----------
    locations:
        uint64 packed (target, window) pairs; each read's segment must
        be sorted ascending (the segmented-sort stage guarantees it).
    read_offsets:
        length ``n_reads + 1`` offsets into ``locations``.
    sws:
        sliding-window size per read (or one int for all): the number
        of consecutive reference windows a candidate region may span.
    m:
        top-list length.
    """
    read_offsets = np.asarray(read_offsets, dtype=np.int64)
    n_reads = read_offsets.size - 1
    if m < 1:
        raise ValueError("m must be >= 1")
    out = Candidates(
        target=np.zeros((n_reads, m), dtype=np.uint32),
        window_first=np.zeros((n_reads, m), dtype=np.uint32),
        window_last=np.zeros((n_reads, m), dtype=np.uint32),
        score=np.zeros((n_reads, m), dtype=np.int64),
        valid=np.zeros((n_reads, m), dtype=bool),
    )
    locations = np.asarray(locations, dtype=np.uint64)
    if locations.size == 0 or n_reads == 0:
        return out
    read_ids = segment_ids_from_offsets(read_offsets)
    sws_arr = np.broadcast_to(np.asarray(sws, dtype=np.int64), (n_reads,))

    # -- window count statistic: collapse runs of equal (read, location).
    # Within a read the list is sorted and reads are contiguous, so
    # adjacent-equality on both arrays is exactly per-read RLE.
    same = np.zeros(locations.size, dtype=bool)
    same[1:] = (locations[1:] == locations[:-1]) & (read_ids[1:] == read_ids[:-1])
    starts = np.flatnonzero(~same)
    u_loc = locations[starts]
    u_read = read_ids[starts]
    u_count = np.diff(np.append(starts, locations.size)).astype(np.int64)

    u_target, u_window = unpack_pairs(u_loc)
    u_target = u_target.astype(np.int64)
    u_window = u_window.astype(np.int64)

    # -- runs of equal (read, target)
    run_head = np.zeros(u_loc.size, dtype=bool)
    run_head[0] = True
    run_head[1:] = (u_read[1:] != u_read[:-1]) | (u_target[1:] != u_target[:-1])
    run_id = np.cumsum(run_head) - 1

    # -- monotonic window axis across runs -> one global searchsorted
    # OFFSET must exceed any window id + sws so run blocks never overlap.
    max_win = int(u_window.max()) if u_window.size else 0
    max_sws = int(sws_arr.max()) if sws_arr.size else 1
    offset = np.int64(max_win + max_sws + 2)
    w_mono = u_window + run_id * offset
    span_limit = w_mono + sws_arr[u_read]
    # end index (exclusive) of each sliding-window span
    span_end = np.searchsorted(w_mono, span_limit, side="left")

    csum = exclusive_prefix_sum(u_count)
    idx = np.arange(u_loc.size, dtype=np.int64)
    scores = csum[span_end] - csum[idx]

    # -- best candidate per (read, target) run
    # order within runs by (-score, index): first occurrence per run wins
    order = np.lexsort((idx, -scores, run_id))
    run_sorted = run_id[order]
    best_mask = first_occurrence_mask(run_sorted)
    best_idx = order[best_mask]  # one entry per run, its argmax
    b_read = u_read[best_idx]
    b_score = scores[best_idx]

    # -- top-m runs per read
    top_mask = segmented_top_k_mask(b_read, b_score, m)
    sel = best_idx[top_mask]
    sel_read = b_read[top_mask]
    sel_score = b_score[top_mask]
    # rank within read by (-score, index) for deterministic column order
    rank_order = np.lexsort((sel, -sel_score, sel_read))
    sel = sel[rank_order]
    sel_read = sel_read[rank_order]
    sel_score = sel_score[rank_order]
    col = np.zeros(sel.size, dtype=np.int64)
    if sel.size:
        head = np.zeros(sel.size, dtype=bool)
        head[0] = True
        head[1:] = sel_read[1:] != sel_read[:-1]
        first_pos = np.flatnonzero(head)
        seg = np.cumsum(head) - 1
        col = np.arange(sel.size) - first_pos[seg]

    out.target[sel_read, col] = u_target[sel].astype(np.uint32)
    out.window_first[sel_read, col] = u_window[sel].astype(np.uint32)
    last_idx = span_end[sel] - 1
    out.window_last[sel_read, col] = u_window[last_idx].astype(np.uint32)
    out.score[sel_read, col] = sel_score
    out.valid[sel_read, col] = True
    return out
