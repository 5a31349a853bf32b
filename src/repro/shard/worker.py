"""The shard pool's task: attach once, then one batch per call.

Each replica attaches its shard's database by memory-mapping the
saved format-v2 directory
(:class:`~repro.core.database.FileBackedDatabaseHandle` pickles as
just the path), then answers every
:class:`~repro.shard.messages.ShardTask` the pool's child loop
(:mod:`repro.parallel.pool`) hands it with the unmodified
single-process candidate pipeline restricted to the shard's assigned
partitions -- ``query_database(..., partition_ids=...)`` -- so the
per-partition candidate runs are bit-identical to what a
whole-database query would have produced for those partitions, and
the in-worker merge across them (ascending partition order) is the
same tie-break-stable merge the single process applies.

Classification itself (the top-hit/LCA rule) stays on the router
side: it needs only target/taxonomy metadata, never the index, so
shipping candidates instead of classifications keeps the replica's
resident set to its own partitions' pages.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Sequence

from repro.core.database import FileBackedDatabaseHandle
from repro.core.query import query_database
from repro.shard.messages import ShardResult, ShardTask

__all__ = ["attach_shard"]


def attach_shard(
    handle: FileBackedDatabaseHandle, partition_ids: Sequence[int]
) -> Callable[[ShardTask], ShardResult]:
    """Pool ``init``: map the directory, return this shard's task.

    ``partition_ids`` is the strictly ascending partition subset the
    shard serves; every replica shares one physical index copy
    through the page cache.
    """
    return functools.partial(_query_shard, handle.attach(), list(partition_ids))


def _query_shard(db: Any, partition_ids: list[int], task: ShardTask) -> ShardResult:
    """Candidate generation over this shard's partitions, for one batch."""
    t0 = time.perf_counter()
    query_params = db.params.replace(classification=task.params)
    result = query_database(
        db, task.packed, params=query_params, partition_ids=partition_ids
    )
    cands = result.candidates
    return ShardResult(
        target=cands.target,
        window_first=cands.window_first,
        window_last=cands.window_last,
        score=cands.score,
        valid=cands.valid,
        read_lengths=result.read_lengths,
        n_reads=result.n_reads,
        total_locations=result.total_locations,
        stage_seconds=dict(result.stages.stages),
        total_seconds=time.perf_counter() - t0,
    )
