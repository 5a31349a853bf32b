"""Top-candidate generation: window-count statistic + sliding window.

Steps (7) and (8) of the query pipeline (Sections 4.2 / 5.6): after
the per-read location lists are sorted, identical locations are
accumulated into a sparse histogram of hits per reference window (the
*window count statistic*), a sliding window of ``sws`` consecutive
reference windows aggregates counts into contiguous-region scores,
and the best region per target competes for the read's top-``m``
candidate list.

Everything here is vectorized over all reads of a chunk at once, on
the key the segmented sort already ordered the chunk by
(:class:`repro.sort.segmented.LocationKeyLayout`):

    key = read << (T + W) | target << W | window

with ``T`` / ``W`` the bit lengths of the batch's largest target and
window id.  Both callers run the tail one read chunk at a time
(:func:`read_chunks`) and fill one :class:`Candidates` per batch: the
query pipeline hands :func:`chunk_top` the sorted keys of a chunk
itself, and :func:`generate_top_candidates` takes sorted location lists
and only has to number each chunk's reads.  Every step is a linear
pass or one single-key operation on the non-decreasing keys.  Why each
is exact, and (last) what the steps hold in memory:

- **Field widths.**  ``T`` and ``W`` hold every id of the batch and
  the read field takes the rest of the word, so keys compare exactly
  as (read, target, window) triples.  When ``T + W`` -- or the room the
  two selection keys below need -- leaves too few read bits for the
  batch, a chunk holds fewer reads (``LocationKeyLayout.read_span``),
  numbered from zero, down to one read per chunk where the key is the
  compressed location alone; rows of different chunks never interact.
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
  therefore returns every span end, already inside its run.  The
  limit clips the same per-read ``sws`` however it arrives: one value
  when every read of the chunk shares it, one per entry gathered by
  read otherwise.
- **Reversed-index maximum = first-occurrence argmax.**  Per run the
  winner is the highest score, the *first* such entry on ties.  With
  ``b`` the bit length of the last entry index,
  ``score << b | (last - index)`` orders by score and then by
  descending index, so ``np.maximum.reduceat`` over the runs returns
  score and first index in one word.  Scores and indices are both at
  most the chunk's location count ``n``; the chunk planner reserves
  ``2 * bit_length(CHUNK_LOCATIONS)`` bits beside the read field, and
  a chunk with more locations is one read (no read field), which
  needs ``n < 2^32`` per read.
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
- **Memory per chunk.**  The per-location arrays exist for one chunk
  at a time, at most :data:`CHUNK_LOCATIONS` locations (or one longer
  read): ``n`` locations make ``u <= n`` entries (about ``0.3 n`` on
  dense reads) and fewer runs.  At the gather
  (:func:`repro.util.segmented.gather_segments`) the chunk's 8-byte
  index and 8-byte keys are alive; at the segmented sort the keys and
  one 8-byte read-number array; here the keys, a 1-byte
  first-occurrence mask, then at most four 8-byte arrays per entry at
  once: the entries' keys and three of the entry bounds, the span
  limits (built in the buffer that found the runs), the span ends, the
  scores (ranked in place) and their reversed index, each released
  after its last reader.  The kept entries' windows are read back from
  the entries' keys; no window column is built.  What still grows with
  a batch is per occurrence or per distinct list, outside the tail:
  the sketches, the occurrence pointers and the distinct lists' keys.

The lexsort formulation this replaced is the oracle
(``tests/reference/query_tail.py``); ``tests/test_query_tail_equivalence.py``
holds all five output arrays byte-identical to it.  The whole-batch
tail the chunks replaced is the oracle of
``tests/test_chunked_tail_equivalence.py``
(``tests/reference/whole_slice_query.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sort.segmented import LocationKeyLayout
from repro.util.segmented import first_occurrence_mask, segmented_cumcount

__all__ = [
    "CHUNK_LOCATIONS",
    "Candidates",
    "chunk_top",
    "generate_top_candidates",
    "read_chunks",
    "window_reach",
]

#: locations the query tail holds at once: gather, numbering, sort and
#: top-m run over contiguous read chunks of at most this many (a read
#: with more is a chunk of its own), so the tail's working memory stops
#: growing with a batch's locations.  2^16 held the same peak RSS on the
#: dense workload, but its twice as many chunks cost top-m ~15 % more
#: time with two slices running at once (docs/architecture.md)
CHUNK_LOCATIONS = 1 << 17


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

    @classmethod
    def empty(cls, n_reads: int, m: int) -> "Candidates":
        """``n_reads`` rows of ``m`` invalid candidates, filled by chunks."""
        if m < 1:
            raise ValueError("m must be >= 1")
        return cls(
            target=np.zeros((n_reads, m), dtype=np.uint32),
            window_first=np.zeros((n_reads, m), dtype=np.uint32),
            window_last=np.zeros((n_reads, m), dtype=np.uint32),
            score=np.zeros((n_reads, m), dtype=np.int64),
            valid=np.zeros((n_reads, m), dtype=bool),
        )

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

    The standalone form of the query tail: sorted segments need only
    their read numbers to become sorted keys, one chunk of
    :func:`read_chunks` at a time.
    """
    read_offsets = np.asarray(read_offsets, dtype=np.int64)
    locations = np.asarray(locations, dtype=np.uint64)
    n_reads = read_offsets.size - 1
    out = Candidates.empty(n_reads, m)
    if locations.size == 0 or n_reads == 0:
        return out
    reach = window_reach(sws, n_reads)
    layout = LocationKeyLayout.of(locations)
    chunks = read_chunks(layout, read_offsets)
    for first, last in chunks:
        a, b = read_offsets[first], read_offsets[last]
        if a < b:
            offsets = read_offsets[first : last + 1] - a
            keys = layout.squeeze(locations[a:b])
            layout.number(keys, offsets, [(0, last - first)])
            chunk_top(out, first, layout, keys, reach[first:last], m)
    return out


def window_reach(sws: np.ndarray | int, n_reads: int) -> np.ndarray:
    """``sws - 1`` of every read as uint64: how many windows past its
    first a span may reach.  ``ValueError`` for a size below one."""
    sws_arr = np.broadcast_to(np.asarray(sws, dtype=np.int64), (n_reads,))
    if n_reads and sws_arr.min() < 1:
        raise ValueError("sliding-window sizes must be >= 1")
    return (sws_arr - 1).astype(np.uint64)


def read_chunks(
    layout: LocationKeyLayout, read_offsets: np.ndarray
) -> list[tuple[int, int]]:
    """The contiguous ``[first, last)`` read ranges the tail runs one by one.

    A chunk holds at most :data:`CHUNK_LOCATIONS` locations, or one
    read that has more (reads never split), and at most the reads one
    bit-budget group of ``layout`` numbers with room for the selection
    keys' two counts of up to :data:`CHUNK_LOCATIONS` each: inside a
    chunk the sort and top-m see a single group.  Reads without
    locations join whichever chunk they fall in.
    """
    span = layout.read_span(2 * CHUNK_LOCATIONS.bit_length())
    # the furthest read end within the budget of each read's start
    ends = np.searchsorted(
        read_offsets, read_offsets[:-1] + CHUNK_LOCATIONS, side="right"
    )
    ends -= 1
    chunks = []
    first = 0
    while first < ends.size:
        last = min(max(int(ends[first]), first + 1), first + span)
        chunks.append((first, last))
        first = last
    return chunks


def chunk_top(
    out: Candidates,
    first_row: int,
    layout: LocationKeyLayout,
    keys: np.ndarray,
    reach: np.ndarray,
    m: int,
) -> None:
    """Fill ``out`` rows ``first_row ..`` from one chunk's sorted keys.

    ``keys`` are ``layout``'s ``(read | target | window)`` keys of a
    :func:`read_chunks` chunk, non-empty, numbered from zero and
    ascending -- what :meth:`LocationKeyLayout.sort_segments` leaves;
    ``reach`` is :func:`window_reach` of the chunk's reads.
    """
    if reach.min() == reach.max():
        # one reach for the chunk: no per-entry gather
        _group_top(out, first_row, layout, keys, reach[0], m)
    else:
        _group_top(out, first_row, layout, keys, reach, m)


def _group_top(
    out: Candidates,
    first_row: int,
    layout: LocationKeyLayout,
    keys: np.ndarray,
    reach: np.ndarray | np.uint64,
    m: int,
) -> None:
    """Fill ``out`` rows ``first_row ..`` from one chunk's sorted keys.

    ``keys`` are non-empty; read ``i`` of the chunk may extend its
    spans ``reach[i] = sws - 1`` windows past their first, or ``reach``
    windows when it is one value for the whole chunk.  See the module
    docstring for why each step is exact and what each step holds.
    """
    u64 = np.uint64

    # -- window count statistic: collapse equal (read, location) keys;
    # an entry's count is the distance to the next entry's start
    starts = np.flatnonzero(first_occurrence_mask(keys))
    bounds = np.append(starts, keys.size)
    starts = bounds[:-1]  # one buffer for both
    n_unique = starts.size
    u_key = keys.take(starts)

    # -- (read, target) runs; the buffer then becomes the span limits
    limit = layout.runs(u_key)
    run_starts = np.flatnonzero(first_occurrence_mask(limit))
    run_read = limit.take(run_starts) >> u64(layout.target_bits)

    # -- sliding-window span of every entry: up to and including the
    # last key <= key + reach, with reach clipped to the room left in
    # the window field so the limit stays inside the (read, target) run
    np.bitwise_and(u_key, layout.window_top, out=limit)
    np.subtract(layout.window_top, limit, out=limit)
    if isinstance(reach, np.ndarray):
        reach = reach.take(layout.reads(u_key))
    np.minimum(limit, reach, out=limit)
    del reach
    limit += u_key
    span_end = np.searchsorted(u_key, limit, side="right")
    del limit
    scores = bounds.take(span_end)
    scores -= starts
    del bounds, starts

    # -- best entry per (read, target) run: the maximum of
    # (score | reversed index) is the highest score at its first index
    last_index = u64(n_unique - 1)
    index_bits = u64(int(last_index).bit_length())
    ranked = scores.view(u64)
    ranked <<= index_bits
    ranked |= np.arange(n_unique - 1, -1, -1, dtype=u64)
    best = np.maximum.reduceat(ranked, run_starts)
    del ranked, scores
    best_score = best >> index_bits
    best &= (u64(1) << index_bits) - u64(1)
    best_entry = np.subtract(last_index, best, out=best)

    # -- top-m runs per read and their column order, one sort over
    # (read | max_score - score | run): descending score, ties by
    # ascending run = ascending target
    n_runs = run_starts.size
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

    # the kept entries' windows, read back from their keys
    entry = best_entry[run]
    out.target[row, col] = layout.targets(u_key[entry])
    out.window_first[row, col] = layout.windows(u_key[entry])
    out.window_last[row, col] = layout.windows(u_key[span_end[entry] - 1])
    out.score[row, col] = best_score[run]
    out.valid[row, col] = True
