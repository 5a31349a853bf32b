"""The whole-slice query tail (steps 4-8), kept verbatim as the oracle.

Before the tail ran by read chunks, ``partition_candidates`` gathered
the keys of every location of a slice at once, numbered and sorted them
in one array per bit-budget group and reduced the whole slice to its
top-``m`` lists, so its working memory grew with the slice's locations.
These functions are that code, moved out of ``src/`` unchanged:
``tests/test_chunked_tail_equivalence.py`` asserts the chunked
:func:`repro.core.query.partition_candidates` returns the same bytes
for any chunk budget.  Per bit-budget group both call the same
``_group_top``, whose arithmetic the lexsort oracle
(``tests/reference/query_tail.py``) pins.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.candidates import Candidates, _group_top
from repro.core.database import Database
from repro.hashing.minhash import SKETCH_PAD
from repro.sort.compaction import read_segment_offsets
from repro.sort.segmented import LocationKeyLayout
from repro.util.segmented import gather_segments, run_length_encode
from repro.util.timer import StageTimer
from repro.warpcore.base import sort_by_key

__all__ = ["candidate_groups", "partition_candidates", "top_candidates"]


def partition_candidates(
    db: Database,
    sketches: np.ndarray,
    window_read_ids: np.ndarray,
    n_reads: int,
    sliding_window_sizes: np.ndarray,
    max_candidates: int,
    timer: StageTimer,
    partition_ids: Sequence[int] | None = None,
) -> tuple[list[Candidates], int]:
    """Steps 4-8 for one sketched batch: top candidates per partition.

    ``sketches`` is the ``(n_windows, s)`` feature matrix of the batch
    and ``window_read_ids`` maps each row to its read; every selected
    partition is probed, compacted, segment-sorted and reduced to its
    local top-``max_candidates`` list, with the stage seconds added to
    ``timer``.  Returns the per-partition candidates (in partition
    order) and the total number of locations retrieved.

    ``partition_ids`` restricts the run to a strictly ascending subset
    of the database's partitions (default: all of them); see
    :func:`query_database`.
    """
    if partition_ids is None:
        pids: Sequence[int] = range(db.n_partitions)
    else:
        pids = [int(p) for p in partition_ids]
        if not pids:
            raise ValueError("partition_ids must name at least one partition")
        if any(p < 0 or p >= db.n_partitions for p in pids):
            raise ValueError(
                f"partition_ids {pids} out of range for a database with "
                f"{db.n_partitions} partition(s)"
            )
        if any(b <= a for a, b in zip(pids, pids[1:])):
            # ascending order pins the local merge order, so a shard's
            # partial result is deterministic regardless of plan shape
            raise ValueError(f"partition_ids must be strictly ascending: {pids}")

    s = sketches.shape[1]
    flat_features = sketches.reshape(-1)
    occurrence = np.flatnonzero(flat_features != SKETCH_PAD)
    # read of every feature occurrence, non-decreasing like the
    # windows' (read_segment_offsets refuses anything else)
    occurrence_reads = np.asarray(window_read_ids).take(occurrence // s)
    with timer.stage("query"):
        # one walk per distinct feature; occurrence i reads the list of
        # distinct feature feature_of[i]
        sorted_features, order = sort_by_key(flat_features.take(occurrence))
        del occurrence
        distinct, repeats = run_length_encode(sorted_features)
        del sorted_features
        feature_of = np.empty(order.size, dtype=np.int64)
        feature_of[order] = np.repeat(np.arange(distinct.size), repeats)
        del order, repeats

    per_partition: list[Candidates] = []
    total_locations = 0
    for pid in pids:
        with timer.stage("query"):
            # the keys of every distinct feature's list, built straight
            # from the partition's location words
            layout, feature_keys, feature_starts, feature_lengths = (
                db.partitions[pid].location_keys(distinct)
            )
        with timer.stage("compact"):
            # pointers, not keys: each occurrence's slice of the
            # distinct lists, and each read's run of occurrences
            starts = feature_starts.take(feature_of)
            lengths = feature_lengths.take(feature_of)
            del feature_starts, feature_lengths
            read_offsets = read_segment_offsets(occurrence_reads, lengths, n_reads)
        with timer.stage("segmented_sort"):
            # gather every occurrence's keys, number the reads and sort
            # each bit-budget group; the gather is the last reader of
            # the distinct lists and the pointers
            keys = gather_segments(feature_keys, starts, lengths)
            del feature_keys, starts, lengths
            groups = candidate_groups(layout, n_reads, keys.size)
            layout.sort_segments(keys, read_offsets, groups)
        total_locations += keys.size
        with timer.stage("window_count_top"):
            cands = top_candidates(
                keys, read_offsets, layout, sliding_window_sizes, max_candidates
            )
        del keys  # not alive through the next partition's lookup and gather
        per_partition.append(cands)
    return per_partition, total_locations


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
            group_reach = reach[first:last]
            if group_reach.min() == group_reach.max():
                # one reach for the group: no per-entry gather
                group_reach = group_reach[0]
            _group_top(out, first, layout, keys[a:b], group_reach, m)
    return out
