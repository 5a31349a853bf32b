"""The pair-granular lookup stage (steps 4-8), kept verbatim as the oracle.

Before the lookup became key-granular, ``partition_candidates`` handed
every (window, feature) occurrence to ``Database.query_features`` -- a
feature shared by a thousand reads walked its probe sequence and had
its location list gathered a thousand times -- then counted locations
per window with a scatter-add, segment-sorted the gathered locations
(pack, sort, unpack) and re-packed them for top-candidate generation.
This function is that code, moved out of ``src/`` unchanged:
``tests/test_lookup_equivalence.py`` asserts the production path
returns the same candidate bytes and the same location total.  Its
sort and top-candidate stages are the lexsort oracle in
``tests/reference/query_tail.py``, so it shares no tail code with
``src/``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.candidates import Candidates
from repro.core.database import Database
from repro.hashing.minhash import SKETCH_PAD
from repro.sort.compaction import read_segment_offsets
from repro.util.timer import StageTimer

from .query_tail import generate_top_candidates, segmented_sort_lexsort

__all__ = ["partition_candidates"]


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
