"""Warp emulation of the top-candidate kernel (Section 5.6).

One warp processes one read's *sorted* location list:

1. lanes cooperatively load 32 locations at a time and run a
   segmented reduction that accumulates counts of identical values;
   unique (location, count) pairs append to a shared-memory buffer;
2. once at least ``32 + sws - 1`` unique locations are buffered (or
   input is exhausted), every lane computes the sliding-window score
   of the region starting at its buffer position: it scans up to
   ``sws`` following locations, adding counts while they stay within
   the same target and window range, discarding the rest;
3. each lane maintains a private top-``m`` list in registers; after
   the input is consumed the warp merges the 32 lists via shuffles.

The emulation executes exactly this schedule (chunked loads, deferred
tail positions, per-lane top lists).
``benchmarks/paper/tests/test_gpu_kernels.py`` verifies it against :func:`repro.core.candidates.generate_top_candidates`.
"""

from __future__ import annotations

import numpy as np

from repro.util.bitops import unpack_pairs

from paper.gpu.warp import WARP_SIZE, segmented_reduce_sum

__all__ = ["warp_top_candidates"]


def _warp_rle_chunk(chunk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segmented reduction over one 32-lane chunk of sorted locations.

    Returns (unique_locations, counts) for the chunk, produced with
    the head-flag segmented-sum primitive like the device kernel.
    """
    lanes = chunk.size
    padded = np.full(WARP_SIZE, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
    padded[:lanes] = chunk
    heads = np.zeros(WARP_SIZE, dtype=bool)
    heads[0] = True
    heads[1:] = padded[1:] != padded[:-1]
    ones = np.ones(WARP_SIZE, dtype=np.int64)
    ones[lanes:] = 0
    sums = segmented_reduce_sum(ones, heads)
    keep = heads & (np.arange(WARP_SIZE) < lanes)
    return padded[keep], sums[keep]


def warp_top_candidates(
    sorted_locations: np.ndarray, sws: int, m: int
) -> list[tuple[int, int, int, int]]:
    """Top-m candidates of one read, warp-style.

    Returns up to ``m`` tuples ``(target, window_first, window_last,
    score)`` sorted by descending score (ties: lower target first,
    then lower window), one per distinct target -- the same contract
    as the batch implementation.
    """
    loc = np.asarray(sorted_locations, dtype=np.uint64)
    # --- stage 1: chunked warp RLE into the shared-memory buffer
    buf_loc: list[int] = []
    buf_cnt: list[int] = []
    pos = 0
    while pos < loc.size:
        chunk = loc[pos : pos + WARP_SIZE]
        u, c = _warp_rle_chunk(chunk)
        for v, n in zip(u.tolist(), c.tolist()):
            if buf_loc and buf_loc[-1] == v:
                buf_cnt[-1] += n  # chunk boundary continues a run
            else:
                buf_loc.append(v)
                buf_cnt.append(n)
        pos += WARP_SIZE

    n_u = len(buf_loc)
    if n_u == 0:
        return []
    tgt, win = unpack_pairs(np.array(buf_loc, dtype=np.uint64))
    tgt = tgt.astype(np.int64)
    win = win.astype(np.int64)
    cnt = np.array(buf_cnt, dtype=np.int64)

    # --- stage 2: per-lane sliding windows over the unique buffer.
    # Lane l handles buffer positions l, l+32, l+64, ... (the kernel
    # re-fills the buffer between iterations; the assignment of
    # positions to lanes is the same round-robin).
    lane_tops: list[list[tuple[int, int, int, int]]] = [[] for _ in range(WARP_SIZE)]
    for start in range(n_u):
        lane = start % WARP_SIZE
        t0, w0 = tgt[start], win[start]
        score = 0
        last = w0
        for j in range(start, n_u):
            if tgt[j] != t0 or win[j] >= w0 + sws:
                break  # out of range: discard all following
            score += int(cnt[j])
            last = int(win[j])
        _lane_top_insert(lane_tops[lane], (int(t0), int(w0), last, score), m)

    # --- stage 3: warp merge of the 32 private top lists.
    merged: dict[int, tuple[int, int, int, int]] = {}
    for top in lane_tops:
        for cand in top:
            t = cand[0]
            best = merged.get(t)
            if best is None or _better(cand, best):
                merged[t] = cand
    final = sorted(merged.values(), key=lambda c: (-c[3], c[0], c[1]))
    return final[:m]


def _better(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> bool:
    """Candidate ordering: higher score, then earlier window start."""
    return (a[3], -a[1]) > (b[3], -b[1])


def _lane_top_insert(
    top: list[tuple[int, int, int, int]], cand: tuple[int, int, int, int], m: int
) -> None:
    """Insert into a lane's register top list (best candidate per target)."""
    for i, existing in enumerate(top):
        if existing[0] == cand[0]:
            if _better(cand, existing):
                top[i] = cand
            return
    top.append(cand)
    top.sort(key=lambda c: (-c[3], c[0], c[1]))
    del top[m:]
