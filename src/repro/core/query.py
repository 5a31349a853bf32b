"""The query pipeline (Section 5.2, steps 1-8) with stage timers.

Per batch of reads:

1-3. encode + hash + sketch every read window (one batched kernel
     over the batch's *packed* code buffer -- no per-read loop);
4.   query each partition's hash table once per *distinct* feature
     of the batch (one grouping sort, as the device aggregates a
     key's work in one cooperative group);
5.   compact: expand each feature occurrence's ``(start, length)``
     pointer into the distinct lists, and each read's run of
     occurrences into its segment offsets (a running sum -- read ids
     never decrease);
6.   segmented sort: the distinct lists are squeezed into
     ``(target | window)`` keys once, every occurrence's slice is
     gathered, numbered with its read and sorted in place (one
     ``np.sort`` per bit-budget group);
7-8. window-count statistic + sliding-window top-m candidates, read
     straight off those sorted keys.

Reads enter as a :class:`~repro.pipeline.packed.PackedReads` batch
(one contiguous uint8 buffer + int64 offset/read-id arrays, the host
analogue of MetaCache-GPU staging whole read batches in device
buffers); the list-of-arrays shape is still accepted and packed on
entry.  Steps 4-8 are :func:`partition_candidates`, shared with the
simulated device ring (``ring_query`` in the ``gpu`` package) and the
per-read oracle under ``tests/reference/``, which differ only in how
they sketch and how they merge.

With several partitions, sketches are generated once and each
partition produces local top hits which are merged -- contents
identical to a single-table query because targets are never split
across partitions.

Paired-end mates are interleaved (m1[0], m2[0], m1[1], ...) so each
pair's windows are adjacent and feed one combined candidate list, as
in Fig. 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.candidates import Candidates, candidate_groups, top_candidates
from repro.core.config import MetaCacheParams
from repro.core.database import Database
from repro.hashing.minhash import SKETCH_PAD
from repro.hashing.sketch import sketch_reads_packed
from repro.pipeline.packed import PackedReads
from repro.sort.compaction import read_segment_offsets
from repro.sort.segmented import LocationKeyLayout
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
        distinct, repeats = run_length_encode(sorted_features)
        feature_of = np.empty(occurrence.size, dtype=np.int64)
        feature_of[order] = np.repeat(np.arange(distinct.size), repeats)

    per_partition: list[Candidates] = []
    total_locations = 0
    for pid in pids:
        with timer.stage("query"):
            locations, feature_offsets = db.query_features(distinct, pid)
        with timer.stage("compact"):
            # pointers, not locations: each occurrence's slice of the
            # distinct lists, and each read's run of occurrences
            starts = feature_offsets.take(feature_of)
            lengths = np.diff(feature_offsets).take(feature_of)
            read_offsets = read_segment_offsets(occurrence_reads, lengths, n_reads)
        with timer.stage("segmented_sort"):
            # squeeze the distinct lists once, gather every occurrence's
            # keys, number the reads and sort each bit-budget group
            layout = LocationKeyLayout.of(locations)
            keys = gather_segments(layout.squeeze(locations), starts, lengths)
            groups = candidate_groups(layout, n_reads, keys.size)
            layout.sort_segments(keys, read_offsets, groups)
        total_locations += keys.size
        with timer.stage("window_count_top"):
            cands = top_candidates(
                keys, read_offsets, layout, sliding_window_sizes, max_candidates
            )
        per_partition.append(cands)
    return per_partition, total_locations


def query_database(
    db: Database,
    sequences: "PackedReads | list[np.ndarray]",
    mates: list[np.ndarray] | None = None,
    params: MetaCacheParams | None = None,
    partition_ids: Sequence[int] | None = None,
) -> QueryResult:
    """Query reads against every database partition and merge.

    Parameters
    ----------
    db:
        the database (build or condensed layout).
    sequences / mates:
        the reads -- either one :class:`PackedReads` batch (``mates``
        must then be ``None``: pairs are already interleaved inside
        it), or the list-of-arrays shape, packed on entry.
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
    if isinstance(sequences, PackedReads):
        if mates is not None:
            raise ValueError(
                "mates must be None for packed input (pairs are "
                "interleaved inside the PackedReads batch)"
            )
        packed = sequences
    else:
        packed = PackedReads.from_reads(sequences, mates)

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
