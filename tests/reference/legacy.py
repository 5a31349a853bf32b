"""The pre-packing per-read query path, kept verbatim as the oracle.

Before the packed-batch refactor every query stage iterated reads one
at a time in Python.  These functions are that code, moved out of
``src/`` unchanged: ``tests/test_packed_equivalence.py`` asserts the
packed kernels are byte-identical to them at every stage boundary.
Only the sketch leg differs from production -- probing, compaction,
sorting and top-m selection are the shared
:func:`repro.core.query.partition_candidates` -- and its stages are the
pre-doubling kernel in ``tests/reference/sketch_windowed.py``, so the
oracle shares no sketch code with ``src/``.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import MetaCacheParams
from repro.core.database import Database
from repro.core.query import QueryResult, partition_candidates
from repro.hashing.minhash import SKETCH_PAD
from repro.hashing.sketch import SketchParams
from repro.util.timer import StageTimer

from .sketch_windowed import position_hashes, sketch_windows_batch, window_hash_matrix

__all__ = ["sketch_reads_loop", "_interleave_pairs_loop", "query_database_legacy"]


def sketch_reads_loop(
    sequences: list[np.ndarray],
    params: SketchParams,
    read_ids: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sketch a batch with one Python iteration per read."""
    if read_ids is None:
        read_ids = np.arange(len(sequences), dtype=np.int64)
    else:
        read_ids = np.asarray(read_ids, dtype=np.int64)
        if read_ids.size != len(sequences):
            raise ValueError("read_ids length must match sequences")
    layout = params.layout
    all_hashes: list[np.ndarray] = []
    starts_list: list[np.ndarray] = []
    lengths_list: list[np.ndarray] = []
    win_read: list[np.ndarray] = []
    offset = 0
    for seq, rid in zip(sequences, read_ids):
        h = position_hashes(seq, params)
        if h.size == 0:
            continue
        starts, ends = layout.window_slices(seq.size)
        all_hashes.append(h)
        starts_list.append(starts + offset)
        lengths_list.append(ends - starts - params.k + 1)
        win_read.append(np.full(starts.size, rid, dtype=np.int64))
        offset += h.size
    if not all_hashes:
        return (
            np.full((0, params.sketch_size), SKETCH_PAD, dtype=np.uint64),
            np.zeros(0, dtype=np.int64),
        )
    hashes = np.concatenate(all_hashes)
    starts = np.concatenate(starts_list)
    lengths = np.concatenate(lengths_list)
    matrix = window_hash_matrix(hashes, starts, lengths, params.kmers_per_window)
    sketches = sketch_windows_batch(matrix, params.sketch_size)
    return sketches, np.concatenate(win_read)


def _interleave_pairs_loop(
    sequences: list[np.ndarray], mates: list[np.ndarray] | None
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Flatten reads (+mates) into one sequence list with read ids.

    Builds ``ids``/``lengths`` with per-element Python loops; the
    packed replacement is :meth:`PackedReads.from_reads`.
    """
    n = len(sequences)
    if mates is None:
        ids = np.arange(n, dtype=np.int64)
        lengths = np.array([s.size for s in sequences], dtype=np.int64)
        return list(sequences), ids, lengths
    if len(mates) != n:
        raise ValueError("mates list must match sequences list")
    seqs: list[np.ndarray] = []
    ids = np.empty(2 * n, dtype=np.int64)
    for i, (m1, m2) in enumerate(zip(sequences, mates)):
        seqs.append(m1)
        seqs.append(m2)
        ids[2 * i] = i
        ids[2 * i + 1] = i
    lengths = np.array(
        [a.size + b.size for a, b in zip(sequences, mates)], dtype=np.int64
    )
    return seqs, ids, lengths


def query_database_legacy(
    db: Database,
    sequences: list[np.ndarray],
    mates: list[np.ndarray] | None = None,
    params: MetaCacheParams | None = None,
) -> QueryResult:
    """``query_database`` with the per-read interleave/sketch/sws leg."""
    params = params or db.params
    timer = StageTimer()
    seqs, read_ids, read_lengths = _interleave_pairs_loop(sequences, mates)
    with timer.stage("sketch"):
        sketches, window_read_ids = sketch_reads_loop(seqs, params.sketch, read_ids)
    sws = np.array(
        [params.sliding_window_size(int(l)) for l in read_lengths],
        dtype=np.int64,
    )
    per_partition, total_locations = partition_candidates(
        db,
        sketches,
        window_read_ids,
        len(sequences),
        sws,
        params.classification.max_candidates,
        timer,
    )
    merged = per_partition[0]
    for cands in per_partition[1:]:
        merged = merged.merged_with(cands)
    return QueryResult(
        candidates=merged,
        n_reads=len(sequences),
        read_lengths=read_lengths,
        stages=timer,
        total_locations=total_locations,
    )
