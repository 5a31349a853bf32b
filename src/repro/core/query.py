"""The query pipeline (Section 5.2, steps 1-8) with stage timers.

Per batch of reads:

1-3. encode + hash + sketch every read window (one batched kernel
     over the batch's *packed* code buffer -- no per-read loop);
4.   look each partition's index up once per *distinct* feature of
     the batch (one grouping sort, as the device aggregates a key's
     work in one cooperative group), and turn the location words
     found straight into ``(target | window)`` keys;
5.   compact: expand each feature occurrence's ``(start, length)``
     pointer into the distinct lists, and each read's run of
     occurrences into its segment offsets (a running sum -- read ids
     never decrease); cut the reads into chunks of at most
     ``CHUNK_LOCATIONS`` locations, each inside one bit-budget group
     (:func:`~repro.core.candidates.read_chunks`), as the device runs
     each step over bounded per-batch buffers (Section 5);
6.   segmented sort, per chunk: its occurrences' slices of keys are
     gathered, numbered with their reads and sorted in place (one
     ``np.sort``);
7-8. window-count statistic + sliding-window top-m candidates, read
     straight off the chunk's sorted keys into its rows of the
     partition's :class:`~repro.core.candidates.Candidates`.

Reads enter as a :class:`~repro.pipeline.packed.PackedReads` batch
(one contiguous uint8 buffer + int64 offset/read-id arrays, the host
analogue of MetaCache-GPU staging whole read batches in device
buffers), the one read shape below the public API.  Steps 4-8 are
:func:`partition_candidates`, shared with the simulated device ring
(``ring_query`` in the ``gpu`` package) and the per-read oracle under
``tests/reference/``, which differ only in how they sketch and how
they merge.

With several partitions, sketches are generated once and each
partition produces local top hits which are merged -- contents
identical to a single-table query because targets are never split
across partitions.

Paired-end mates are interleaved (m1[0], m2[0], m1[1], ...) so each
pair's windows are adjacent and feed one combined candidate list, as
in Fig. 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.candidates import Candidates, chunk_top, read_chunks, window_reach
from repro.core.config import MetaCacheParams
from repro.core.database import Database
from repro.hashing.minhash import SKETCH_PAD
from repro.hashing.sketch import sketch_reads_packed
from repro.pipeline.packed import PackedReads
from repro.sort.compaction import read_segment_offsets
from repro.util.segmented import gather_segments, run_length_encode
from repro.util.timer import StageTimer
from repro.warpcore.base import sort_by_key

__all__ = ["QueryResult", "partition_candidates", "query_database"]


@dataclass
class QueryResult:
    """Output of a query run: top candidates + instrumentation."""

    candidates: Candidates
    n_reads: int
    read_lengths: np.ndarray  # total bases per read (both mates)
    stages: StageTimer = field(default_factory=StageTimer)
    total_locations: int = 0


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
    :func:`query_database`.  ``ValueError`` for a sliding-window size
    below one.

    Steps 6-8 run one read chunk at a time, so the per-location arrays
    hold at most ``CHUNK_LOCATIONS`` locations (or one longer read)
    whatever the batch's size.
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

    reach = window_reach(sliding_window_sizes, n_reads)
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
            chunks = read_chunks(layout, read_offsets)
            # a chunk's occurrences are one slice, as occurrence reads
            # never decrease
            cuts = np.searchsorted(
                occurrence_reads, [first for first, _ in chunks] + [n_reads]
            )
        cands = Candidates.empty(n_reads, max_candidates)
        sort_s = top_s = 0.0
        for (first, last), a, b in zip(chunks, cuts, cuts[1:]):
            offsets = read_offsets[first : last + 1] - read_offsets[first]
            if offsets[-1] == 0:
                continue
            t0 = time.perf_counter()
            # gather the chunk's keys, number its reads and sort them:
            # one bit-budget group
            keys = gather_segments(feature_keys, starts[a:b], lengths[a:b])
            layout.sort_segments(keys, offsets, [(0, last - first)])
            t1 = time.perf_counter()
            chunk_top(cands, first, layout, keys, reach[first:last], max_candidates)
            top_s += time.perf_counter() - t1
            sort_s += t1 - t0
            del keys  # not alive through the next chunk's gather
        # not alive through the next partition's lookup
        del feature_keys, starts, lengths
        timer.add("segmented_sort", sort_s)
        timer.add("window_count_top", top_s)
        total_locations += int(read_offsets[-1])
        per_partition.append(cands)
    return per_partition, total_locations


def query_database(
    db: Database,
    packed: PackedReads,
    params: MetaCacheParams | None = None,
    partition_ids: Sequence[int] | None = None,
) -> QueryResult:
    """Query reads against every database partition and merge.

    Parameters
    ----------
    db:
        the database (any partition layout).
    packed:
        the reads, one :class:`PackedReads` batch (pairs are
        interleaved inside it).
    params:
        defaults to the database's own parameters.
    partition_ids:
        restrict the run to this strictly ascending subset of the
        database's partitions (default: all of them).  The shard
        workers of :mod:`repro.shard` use this to query only their
        assigned partition set; merging the per-shard results with
        :func:`repro.core.merge.merge_partition_runs` reproduces the
        full-database result exactly, because candidate targets are
        unique across partitions.
    """
    params = params or db.params
    timer = StageTimer()
    with timer.stage("sketch"):
        sketches, window_read_ids = sketch_reads_packed(
            packed.buffer, packed.offsets, params.sketch, packed.read_ids
        )
    per_partition, total_locations = partition_candidates(
        db,
        sketches,
        window_read_ids,
        packed.n_reads,
        params.sliding_window_sizes(packed.read_lengths),
        params.classification.max_candidates,
        timer,
        partition_ids,
    )
    with timer.stage("merge"):
        merged = per_partition[0]
        for cands in per_partition[1:]:
            merged = merged.merged_with(cands)

    return QueryResult(
        candidates=merged,
        n_reads=packed.n_reads,
        read_lengths=packed.read_lengths,
        stages=timer,
        total_locations=total_locations,
    )
