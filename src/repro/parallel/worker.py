"""The classify pool's task: attach once, then one chunk per call.

Each worker attaches the
:class:`~repro.core.database.FileBackedDatabaseHandle` it was spawned
with -- the format-v2 directory is memory-mapped, not deserialized --
and then runs the exact single-process hot path,
:func:`repro.core.query.query_database` followed by
:func:`repro.core.classify.classify_reads`, on every
``(PackedReads, ClassificationParams)`` task the pool's child loop
(:mod:`repro.parallel.pool`) hands it.  Headers never travel: the
parent keeps each chunk's headers and stamps them on the answer.
"""

from __future__ import annotations

import functools
from typing import Callable

from repro.core.classify import classify_reads
from repro.core.config import ClassificationParams
from repro.core.database import Database, FileBackedDatabaseHandle
from repro.core.query import query_database
from repro.parallel.chunks import ChunkResult
from repro.pipeline.packed import PackedReads

__all__ = ["attach_classifier"]


def attach_classifier(
    handle: FileBackedDatabaseHandle,
) -> Callable[[PackedReads, ClassificationParams], ChunkResult]:
    """Pool ``init``: map the database, return the per-chunk task."""
    return functools.partial(_classify_chunk, handle.attach())


def _classify_chunk(
    db: Database,
    packed: PackedReads,
    cparams: ClassificationParams,
) -> ChunkResult:
    """The single-process hot path, applied to one chunk."""
    query_params = db.params.replace(classification=cparams)
    result = query_database(db, packed, params=query_params)
    cls = classify_reads(db, result.candidates, cparams)
    return ChunkResult(
        classification=cls,
        read_lengths=result.read_lengths,
        stage_seconds=dict(result.stages.stages),
    )
