"""The multi-process classification engine: a plan over :class:`WorkerPool`.

MetaCache-GPU keeps one resident database per device and streams read
batches through all of them; :class:`ParallelClassifier` is the host
analogue.  N worker processes memory-map one format-v2 copy of the
database (``Database.sharing_handle``: the directory it was opened
from with ``mmap=True``, or a private spill written once and deleted
as soon as every worker has attached), each running the unmodified
single-process hot path on the chunks dispatched to it.  What lives
here is only the plan: least-loaded dispatch bounded by
:attr:`ParallelClassifier.max_inflight`, and an
:class:`~repro.parallel.chunks.OrderedReassembler` restoring
submission order, so results are byte-identical to a ``workers=1``
run.  Processes, queues, handshake, crash detection and teardown are
:class:`~repro.parallel.pool.WorkerPool`'s.

Failure model: a chunk that raises inside a worker surfaces as
:class:`~repro.errors.PipelineError` with the worker traceback; a
worker that dies (OOM kill, segfault, ...) surfaces as
:class:`~repro.errors.WorkerCrashError`.  Both close the whole pool
before raising, so no worker process or spill directory outlives the
engine.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.config import ClassificationParams
from repro.core.database import Database
from repro.errors import PipelineError
from repro.parallel.chunks import ChunkResult, OrderedReassembler, ReadChunk
from repro.parallel.pool import WorkerPool
from repro.parallel.worker import attach_classifier
from repro.pipeline.producer import SequenceBatch
from repro.pipeline.packed import PackedReads

__all__ = ["ParallelClassifier"]


class ParallelClassifier:
    """A pool of worker processes sharing one memory-mapped database.

    Parameters
    ----------
    database:
        the database to serve; mmap-opened databases are attached from
        their own directory, anything else is condensed (and therefore
        frozen) by the one-time spill to a private v2 directory.
    workers:
        number of worker processes (>= 1).
    params:
        default decision rule for :meth:`classify_chunks` calls that
        do not pass their own.

    The engine is a context manager; :meth:`close` (idempotent, also
    run by the pool's GC finalizer) tears the pool down.  After any
    failed run the engine closes itself -- check :attr:`closed`
    before reuse.

    Raises
    ------
    WorkerCrashError
        when a worker fails to attach the database or dies.
    """

    def __init__(
        self,
        database: Database,
        workers: int,
        *,
        params: ClassificationParams | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.params = params or database.params.classification
        self._running = False
        # leaving the block unlinks a private spill: by then every worker
        # holds its own mapping of the files (or the start has failed)
        with database.sharing_handle() as handle:
            self._pool = WorkerPool(
                attach_classifier,
                [(handle,)] * workers,
                [f"metacache-worker-{wid}" for wid in range(workers)],
            )

    @property
    def max_inflight(self) -> int:
        """Chunks outstanding before the feeder blocks on results."""
        return 2 * self.workers + 2

    # ------------------------------------------------------------ main loop

    def classify_chunks(
        self,
        chunks: Iterable[ReadChunk | SequenceBatch | tuple],
        *,
        params: ClassificationParams | None = None,
    ) -> Iterator[ChunkResult]:
        """Stream chunks through the pool, yielding results in order.

        ``chunks`` may contain :class:`ReadChunk` objects,
        :class:`~repro.pipeline.producer.SequenceBatch` instances, or
        ``(headers, sequences)`` / ``(headers, sequences, mates)``
        tuples.  Chunk ids are the arrival positions (0, 1, 2, ...);
        a :class:`ReadChunk` carrying any other ``chunk_id`` is
        rejected with ``ValueError``, because ordered reassembly is
        defined over a contiguous id sequence.  The iterable is
        pulled lazily — at most
        :attr:`max_inflight` chunks are resident between the feeder
        and the reassembly buffer, so arbitrarily long streams run in
        bounded memory.

        Any failure (worker exception, worker death, broken source
        iterable) closes the engine before propagating.

        Raises
        ------
        PipelineError
            a chunk raised inside a worker (original traceback in the
            message).
        WorkerCrashError
            a worker process died without reporting a result.
        """
        if self.closed:
            raise PipelineError("engine is closed")
        if self._running:
            raise PipelineError("engine is already streaming a chunk run")
        self._running = True
        ok = False
        try:
            self._pool.check_alive()  # fail fast on a pool damaged earlier
            yield from self._run(iter(chunks), params or self.params)
            ok = True
        finally:
            self._running = False
            if not ok:
                # failed or abandoned mid-stream: in-flight chunks can
                # no longer be matched to a caller -- tear down rather
                # than hand the next run stale answers
                self.close()

    def _run(
        self, source: Iterator, cparams: ClassificationParams
    ) -> Iterator[ChunkResult]:
        pool = self._pool
        assembler = OrderedReassembler()
        inflight = 0
        fed = 0
        exhausted = False
        while True:
            while not exhausted and inflight < self.max_inflight:
                try:
                    raw = next(source)
                except StopIteration:
                    exhausted = True
                    break
                slot = min(pool.slots, key=lambda s: s.inflight)
                pool.put(slot.index, fed, (_coerce_chunk(raw, fed), cparams))
                fed += 1
                inflight += 1
            if exhausted and inflight == 0:
                # every submitted chunk was returned: complete, in order
                return
            worker_id, _, result = pool.next_result()
            result.worker_id = worker_id
            inflight -= 1
            assembler.push(result)
            yield from assembler.drain()

    # ------------------------------------------------------------ lifecycle

    @property
    def closed(self) -> bool:
        """True once the pool is torn down (engine no longer usable)."""
        return self._pool.closed

    def close(self) -> None:
        """Tear the pool down (idempotent)."""
        self._pool.close()

    def __enter__(self) -> "ParallelClassifier":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"ParallelClassifier({self.workers} workers, {state})"


def _coerce_chunk(raw, chunk_id: int) -> ReadChunk:
    """Normalize the chunk shapes :meth:`classify_chunks` accepts."""
    if isinstance(raw, ReadChunk):
        if raw.chunk_id != chunk_id:
            raise ValueError(
                f"chunk arrived at position {chunk_id} but carries id "
                f"{raw.chunk_id}"
            )
        return raw
    if isinstance(raw, SequenceBatch):
        # reuse the batch's cached packed form (built on the producer
        # thread) instead of re-deriving it from the list view
        return ReadChunk(
            chunk_id=chunk_id, headers=list(raw.headers), packed=raw.packed()
        )
    if isinstance(raw, tuple) and len(raw) in (2, 3):
        if len(raw) == 2 and isinstance(raw[1], PackedReads):
            return ReadChunk(chunk_id=chunk_id, headers=list(raw[0]), packed=raw[1])
        headers, sequences = list(raw[0]), list(raw[1])
        mates = list(raw[2]) if len(raw) == 3 and raw[2] is not None else None
        return ReadChunk(
            chunk_id=chunk_id, headers=headers, sequences=sequences, mates=mates
        )
    raise TypeError(
        f"unsupported chunk type {type(raw).__name__} (expected ReadChunk, "
        "SequenceBatch, (headers, PackedReads) or (headers, sequences[, mates]))"
    )
