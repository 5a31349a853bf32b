"""The classify pool's task: attach once, then one chunk per call.

Each worker attaches the
:class:`~repro.core.database.FileBackedDatabaseHandle` it was spawned
with -- the format-v2 directory is memory-mapped, not deserialized --
and then runs the exact single-process hot path,
:func:`repro.core.query.query_database` followed by
:func:`repro.core.classify.classify_reads`, on every
``(ReadChunk, ClassificationParams)`` task the pool's child loop
(:mod:`repro.parallel.pool`) hands it.
"""

from __future__ import annotations

import functools
import time
from typing import Callable

from repro.core.classify import classify_reads
from repro.core.config import ClassificationParams
from repro.core.database import Database, FileBackedDatabaseHandle
from repro.core.query import query_database
from repro.parallel.chunks import ChunkResult, ReadChunk

__all__ = ["attach_classifier"]


def attach_classifier(
    handle: FileBackedDatabaseHandle,
) -> Callable[[ReadChunk, ClassificationParams], ChunkResult]:
    """Pool ``init``: map the database, return the per-chunk task."""
    return functools.partial(_classify_chunk, handle.attach())


def _classify_chunk(
    db: Database, chunk: ReadChunk, cparams: ClassificationParams
) -> ChunkResult:
    """The single-process hot path, applied to one chunk."""
    t0 = time.perf_counter()
    c0 = time.process_time()
    query_params = db.params.replace(classification=cparams)
    # chunks arrive packed: hand the contiguous batch straight to the
    # query kernels, no per-read list round-trip
    result = query_database(db, chunk.packed, params=query_params)
    cls = classify_reads(db, result.candidates, cparams)
    return ChunkResult(
        chunk_id=chunk.chunk_id,
        headers=chunk.headers,
        classification=cls,
        read_lengths=result.read_lengths,
        stage_seconds=dict(result.stages.stages),
        total_seconds=result.stages.total,
        compute_seconds=time.perf_counter() - t0,
        compute_cpu_seconds=time.process_time() - c0,
    )
