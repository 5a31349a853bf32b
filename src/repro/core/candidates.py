"""Top-candidate generation: window-count statistic + sliding window.

Steps (7) and (8) of the query pipeline (Sections 4.2 / 5.6): after
the per-read location lists are sorted, identical locations are
accumulated into a sparse histogram of hits per reference window (the
*window count statistic*), a sliding window of ``sws`` consecutive
reference windows aggregates counts into contiguous-region scores,
and the best region per target competes for the read's top-``m``
candidate list.

Everything here is batch-vectorized over *all* reads at once, on the
key the segmented sort already ordered the batch by
(:class:`repro.sort.segmented.LocationKeyLayout`):

    key = read << (T + W) | target << W | window

with ``T`` / ``W`` the bit lengths of the batch's largest target and
window id.  The query pipeline hands :func:`top_candidates` those sorted
keys themselves; :func:`generate_top_candidates` takes sorted location
lists and only has to number them with their reads.  Every step is a
linear pass or one single-key operation on the non-decreasing keys.
Why each is exact:

- **Field widths.**  ``T`` and ``W`` hold every id of the batch and
  the read field takes the rest of the word, so keys compare exactly
  as (read, target, window) triples.  When ``T + W`` -- or the room the
  two selection keys below need -- leaves too few read bits for the
  batch, the same code runs over contiguous groups of reads numbered
  from zero (``LocationKeyLayout.groups``), down to one read per group
  where the key is the compressed location alone; rows of different
  groups never interact.
- **Window count.**  Equal (read, location) pairs are equal adjacent
  keys, so run-length encoding is one neighbour compare, and an
  entry's count is the distance to the next entry's start -- the
  start positions *are* the prefix sum of the counts.
- **Span ends cannot cross a run.**  Entry ``i``'s span is every entry
  of its (read, target) run with ``window < window_i + sws``: all keys
  ``<= key_i + (sws - 1)`` if that sum stays inside the run.  The
  addend is clipped to ``2^W - 1 - window_i``, the room left in the
  window field, so the sum never carries into the target field (nor
  wraps the word when the fields fill all 64 bits): clipped, the limit
  is the largest key the run can hold, and all its remaining entries
  are inside the true span anyway because no window id exceeds
  ``2^W - 1 < window_i + sws``.  One ``searchsorted(side="right")``
  therefore returns every span end, already inside its run.
- **Reversed-index maximum = first-occurrence argmax.**  Per run the
  winner is the highest score, the *first* such entry on ties.  With
  ``b`` the bit length of the last entry index,
  ``score << b | (last - index)`` orders by score and then by
  descending index, so ``np.maximum.reduceat`` over the runs returns
  score and first index in one word.  Scores and indices are both at
  most the location count ``n``; the group planner reserves
  ``2 * bit_length(n)`` bits, which needs ``n < 2^32`` per call.
- **One sort for both tie-breaks.**  A read keeps its ``m`` best runs
  by (score descending, run index ascending), and its columns are
  ranked by (score descending, entry index ascending).  Best entries
  increase with their runs, so the two orders are one:
  ``read << .. | (max_score - score) << r | run`` sorted ascending.
  Runs of one read are a contiguous block before the sort and the
  same block after it, so a position's rank inside its block is its
  column, and the first ``m`` of each block are the top list.  Within
  a read runs ascend by target: equal scores keep ascending-target
  order, the tie-break ``Candidates.merged_with`` continues.

The lexsort formulation this replaced is the oracle
(``tests/reference/query_tail.py``); ``tests/test_query_tail_equivalence.py``
holds all five output arrays byte-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sort.segmented import LocationKeyLayout
from repro.util.segmented import first_occurrence_mask, segmented_cumcount

__all__ = ["Candidates", "candidate_groups", "generate_top_candidates", "top_candidates"]


@dataclass
class Candidates:
    """Top-m candidates for a batch of reads (padded arrays).

    All arrays have shape ``(n_reads, m)``; entries beyond a read's
    candidate count are masked False in ``valid`` (targets/scores 0).
    Candidates are ordered by descending score within each read.
    """

    target: np.ndarray  # uint32 target ids
    window_first: np.ndarray  # uint32: start of the best window range
    window_last: np.ndarray  # uint32: end (inclusive) of the range
    score: np.ndarray  # int64 aggregated hit counts
    valid: np.ndarray  # bool

    @property
    def n_reads(self) -> int:
        return self.target.shape[0]

    @property
    def m(self) -> int:
        return self.target.shape[1]

    def merged_with(self, other: "Candidates") -> "Candidates":
        """Merge two candidate sets read-wise, keeping the top-m.

        Used for multi-GPU queries: each device produces local top
        hits which are merged pairwise along the device ring (Fig. 2).
        Targets are unique per device (a reference is never split
        across GPUs) so merging never has to combine scores.
        """
        if self.n_reads != other.n_reads:
            raise ValueError("candidate sets cover different read counts")
        m = max(self.m, other.m)
        tgt = np.concatenate([self.target, other.target], axis=1)
        wf = np.concatenate([self.window_first, other.window_first], axis=1)
        wl = np.concatenate([self.window_last, other.window_last], axis=1)
        sc = np.concatenate([self.score, other.score], axis=1)
        va = np.concatenate([self.valid, other.valid], axis=1)
        # order each row by (-valid, -score, target) and keep first m.
        # The target tie-break matters: single-partition generation
        # ranks equal-score candidates by ascending target id (location
        # lists sort by packed (target, window)), so merging must break
        # score ties the same way or multi-partition queries would
        # order -- and at the m-th slot, *select* -- candidates
        # differently than the equivalent single-partition query.
        order = np.lexsort((tgt, -sc, ~va), axis=1)
        rows = np.arange(tgt.shape[0])[:, None]
        take = order[:, :m]
        return Candidates(
            target=tgt[rows, take],
            window_first=wf[rows, take],
            window_last=wl[rows, take],
            score=sc[rows, take],
            valid=va[rows, take],
        )


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
        sliding-window size per read (or one int for all), >= 1: the
        number of consecutive reference windows a candidate region may
        span.
    m:
        top-list length.

    The standalone form of :func:`top_candidates`: sorted segments
    need only their read numbers to become sorted keys.
    """
    read_offsets = np.asarray(read_offsets, dtype=np.int64)
    locations = np.asarray(locations, dtype=np.uint64)
    layout = LocationKeyLayout.of(locations)
    groups = candidate_groups(layout, read_offsets.size - 1, locations.size)
    keys = layout.number(layout.squeeze(locations), read_offsets, groups)
    return top_candidates(keys, read_offsets, layout, sws, m)


def candidate_groups(
    layout: LocationKeyLayout, n_reads: int, n_locations: int
) -> list[tuple[int, int]]:
    """The bit-budget groups :func:`top_candidates` reads its keys in.

    The (score | index) and (read | score | run) keys of each group
    hold two counts of at most ``n_locations`` each.
    """
    return layout.groups(n_reads, 2 * int(n_locations).bit_length())


def top_candidates(
    keys: np.ndarray,
    read_offsets: np.ndarray,
    layout: LocationKeyLayout,
    sws: np.ndarray | int,
    m: int,
) -> Candidates:
    """Top-m candidates per read from the batch's sorted keys.

    ``keys`` are ``layout``'s ``(read | target | window)`` keys of every
    location, read segments as ``read_offsets`` lays them out, numbered
    and ascending within each group of :func:`candidate_groups` -- what
    :meth:`LocationKeyLayout.sort_segments` leaves.  ``sws`` and ``m``
    as in :func:`generate_top_candidates`.
    """
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
    if keys.size == 0 or n_reads == 0:
        return out
    sws_arr = np.broadcast_to(np.asarray(sws, dtype=np.int64), (n_reads,))
    if sws_arr.min() < 1:
        raise ValueError("sliding-window sizes must be >= 1")
    reach = (sws_arr - 1).astype(np.uint64)
    groups = candidate_groups(layout, n_reads, keys.size)
    for first, last in groups:
        a, b = read_offsets[first], read_offsets[last]
        if a < b:
            _group_top(out, first, layout, keys[a:b], reach[first:last], m)
    return out


def _group_top(
    out: Candidates,
    first_row: int,
    layout: LocationKeyLayout,
    keys: np.ndarray,
    reach: np.ndarray,
    m: int,
) -> None:
    """Fill ``out`` rows ``first_row ..`` from one bit-budget group.

    ``keys`` are the group's sorted keys, non-empty; read ``i`` of the
    group may extend its spans ``reach[i] = sws - 1`` windows past
    their first.  See the module docstring for why each step is exact.
    """
    u64 = np.uint64

    # -- window count statistic: collapse equal (read, location) keys;
    # an entry's count is the distance to the next entry's start
    starts = np.flatnonzero(first_occurrence_mask(keys))
    u_key = keys[starts]
    bounds = np.append(starts, keys.size)
    n_unique = starts.size

    # -- sliding-window span of every entry: up to and including the
    # last key <= key + reach, with reach clipped to the room left in
    # the window field so the limit stays inside the (read, target) run
    u_window = layout.windows(u_key)
    limit = layout.window_top - u_window
    np.minimum(limit, reach[layout.reads(u_key)], out=limit)
    limit += u_key
    span_end = np.searchsorted(u_key, limit, side="right")
    scores = (bounds[span_end] - starts).astype(u64)

    # -- best entry per (read, target) run: the maximum of
    # (score | reversed index) is the highest score at its first index
    run_starts = np.flatnonzero(first_occurrence_mask(layout.runs(u_key)))
    last_index = u64(n_unique - 1)
    index_bits = u64(int(last_index).bit_length())
    ranked = scores << index_bits
    ranked |= np.arange(n_unique - 1, -1, -1, dtype=u64)
    best = np.maximum.reduceat(ranked, run_starts)
    best_score = best >> index_bits
    best_entry = last_index - (best & ((u64(1) << index_bits) - u64(1)))

    # -- top-m runs per read and their column order, one sort over
    # (read | max_score - score | run): descending score, ties by
    # ascending run = ascending target
    n_runs = run_starts.size
    run_read = layout.reads(u_key[run_starts])
    run_bits = u64((n_runs - 1).bit_length())
    deficit = best_score.max() - best_score
    deficit_bits = u64(int(deficit.max()).bit_length())
    order = run_read << (deficit_bits + run_bits)
    order |= deficit << run_bits
    order |= np.arange(n_runs, dtype=u64)
    order.sort()
    # a read's runs are one contiguous block before and after the sort
    col = segmented_cumcount(run_read)
    keep = col < m
    run = order[keep] & ((u64(1) << run_bits) - u64(1))
    row = run_read[keep] + u64(first_row)
    col = col[keep]

    entry = best_entry[run]
    out.target[row, col] = layout.targets(u_key[entry])
    out.window_first[row, col] = u_window[entry]
    out.window_last[row, col] = u_window[span_end[entry] - 1]
    out.score[row, col] = best_score[run]
    out.valid[row, col] = True
