"""``repro.parallel`` -- the worker substrate and the pools built on it.

The paper scales classification by keeping one database resident per
GPU and streaming batches through all devices at once; this package
is the host-side counterpart.  :class:`WorkerPool`
(:mod:`repro.parallel.pool`) is the one process primitive -- spawned
slots with per-generation queues, a ready handshake, crash detection,
respawn and an idempotent close -- and everything multi-process in
the repo is a plan over it.  A :class:`~repro.core.database.Database`
is shared with workers one way: every worker memory-maps the same
format-v2 files (:class:`~repro.core.database.FileBackedDatabaseHandle`,
re-exported here) -- the directory the database was opened from with
``mmap=True``, or a private spill ``Database.sharing_handle`` writes
once and removes as soon as every worker has attached -- so the index
exists exactly once in physical memory no matter the worker count.

:class:`ParallelClassifier` fans chunks of reads out to the
least-loaded worker, each running the unmodified single-process hot
path, and reassembles results in submission order -- output is
byte-identical to a single-process run.  Most callers never touch it
directly: pass ``workers=N`` to :meth:`repro.api.MetaCache.open` (or
to :meth:`~repro.api.QuerySession.classify_files`) and the facade
drives it internally.  Direct use looks like::

    from repro.parallel import ParallelClassifier

    with ParallelClassifier(database, workers=4) as engine:
        for result in engine.classify_chunks(batches):
            ...  # ChunkResults, in submission order

The shard router (:mod:`repro.shard`) is the second plan.
:class:`ParallelSketcher` fans encoded reference sequences out over
sketch workers, but no build path calls it: the streaming
:class:`repro.core.builder.DatabaseBuilder` sketches inline, which
measured faster than the 2-worker pool.  It stays only while the
end-to-end benchmark's traced run measures it.

Layering note: this package sits *below* ``repro.api`` (it depends
only on ``repro.core`` and ``repro.pipeline``); the facade converts
:class:`~repro.parallel.chunks.ChunkResult` arrays into typed records.
"""

from repro.core.database import FileBackedDatabaseHandle
from repro.parallel.chunks import ChunkResult, OrderedReassembler, ReadChunk
from repro.parallel.engine import ParallelClassifier
from repro.parallel.pool import WorkerPool
from repro.parallel.sketch import ParallelSketcher

__all__ = [
    "WorkerPool",
    "ParallelClassifier",
    "ParallelSketcher",
    "ReadChunk",
    "ChunkResult",
    "OrderedReassembler",
    "FileBackedDatabaseHandle",
]
