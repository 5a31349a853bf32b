"""The query pipeline (Section 5.2, steps 1-8) with stage timers.

Per batch of reads:

1-3. encode + hash + sketch every read window (one batched kernel
     over the batch's *packed* code buffer -- no per-read loop);
4.   query sketch features against each partition's hash table;
5.   compact per-window location lists into per-read segments
     (the feature-order output of the batched retrieve is already
     window-grouped, so compaction reduces to offset arithmetic --
     the simulated kernel time is what the cost model charges);
6.   segmented sort of each read's locations (one ``np.sort`` over a
     packed ``(read | target | window)`` key);
7-8. window-count statistic + sliding-window top-m candidates, on
     the same key.

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

from repro.core.candidates import Candidates, generate_top_candidates
from repro.core.config import MetaCacheParams
from repro.core.database import Database
from repro.hashing.minhash import SKETCH_PAD
from repro.hashing.sketch import sketch_reads_packed
from repro.pipeline.packed import PackedReads
from repro.sort.compaction import read_segment_offsets
from repro.sort.segmented import segmented_sort_lexsort
from repro.util.timer import StageTimer

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

    n_windows, s = sketches.shape
    flat_features = sketches.reshape(-1)
    valid = flat_features != SKETCH_PAD
    feat_window = np.repeat(np.arange(n_windows, dtype=np.int64), s)[valid]
    features = flat_features[valid]

    per_partition: list[Candidates] = []
    total_locations = 0
    for pid in pids:
        with timer.stage("query"):
            locations, feat_offsets = db.query_features(features, pid)
        total_locations += locations.size
        with timer.stage("compact"):
            feat_lengths = np.diff(feat_offsets)
            # integer scatter-add, not bincount(weights=...): weighted
            # bincount accumulates in float64 and silently loses
            # exactness past 2^53 total hits
            window_counts = np.zeros(n_windows, dtype=np.int64)
            np.add.at(window_counts, feat_window, feat_lengths)
            read_offsets = read_segment_offsets(
                window_read_ids, window_counts, n_reads
            )
        with timer.stage("segmented_sort"):
            sorted_locations = segmented_sort_lexsort(locations, read_offsets)
        with timer.stage("window_count_top"):
            cands = generate_top_candidates(
                sorted_locations, read_offsets, sliding_window_sizes, max_candidates
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
