"""A pool of sketch processes: a plan over :class:`WorkerPool`.

MetaCache-GPU's database construction is a two-phase producer/consumer
pipeline (Fig. 2): producers parse and *sketch* reference sequences in
parallel while a consumer performs ordered batched inserts into the
hash table.  :class:`ParallelSketcher` is a host-side sketch phase:
``N`` worker processes each run
:func:`repro.hashing.sketch.sketch_packed_segments` on the *packed*
jobs dispatched to them -- one contiguous uint8 code buffer holding
one or more reference sequences plus its int64 offset array, so a job
pickles as two large arrays however many sequences it coalesces -- and
the caller drains the per-window sketch matrices back **in submission
order**, so the result is bit-identical to a serial sketch no matter
how workers interleave.

No build path calls it: :class:`repro.core.builder.DatabaseBuilder`
sketches inline, because sketching is the smaller part of a build's
consumer and a 2-worker pool built 0.27-0.70x as fast as one thread.
It stays only while the end-to-end benchmark's traced run measures
it.

What lives here is only the ``submit``/``drain`` ordering; processes,
queues, handshake, crash detection and teardown are
:class:`~repro.parallel.pool.WorkerPool`'s.  A job that raises inside
a worker surfaces as :class:`~repro.errors.PipelineError` carrying the
worker traceback, a worker that dies as
:class:`~repro.errors.WorkerCrashError`; both close the pool first.

Jobs are submitted with dense ids (0, 1, 2, ...); ``max_inflight``
bounds how many sequences are pickled into the queues at once, which
is what keeps the streaming build's peak memory independent of the
corpus size even with many workers.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterator

import numpy as np

from repro.errors import PipelineError
from repro.hashing.sketch import SketchParams, sketch_packed_segments
from repro.parallel.pool import WorkerPool

__all__ = ["ParallelSketcher"]


def _start_sketcher(params: SketchParams) -> Callable[..., tuple]:
    """Pool ``init``: k, s, w are database-wide, so they travel once.

    The task is :func:`sketch_packed_segments` itself: a job's
    ``(buffer, offsets)`` in, ``(sketches, counts)`` out.
    """
    return functools.partial(sketch_packed_segments, params=params)


class ParallelSketcher:
    """A pool of worker processes sketching reference sequences.

    The sketch phase of the two-phase build pipeline: the caller
    submits packed jobs (one contiguous code buffer covering one or
    more reference sequences) with dense ids and drains
    ``(job_id, sketches, counts)`` results strictly **in submission
    order** via :meth:`drain` / :meth:`drain_all`, so the downstream
    insert stream is identical to a serial build.

    Parameters
    ----------
    params:
        sketching configuration shared by every job.
    workers:
        number of worker processes (>= 1).

    The pool is a context manager; :meth:`close` (idempotent, also
    run by the worker pool's GC finalizer) tears it down.

    Raises
    ------
    WorkerCrashError
        when a worker dies during startup or mid-run.
    PipelineError
        when a job raises inside a worker.
    """

    def __init__(self, params: SketchParams, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.params = params
        self._inflight = 0
        self._next_submit = 0
        self._next_drain = 0
        self._buffer: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._pool = WorkerPool(
            _start_sketcher,
            [(params,)] * workers,
            [f"metacache-sketcher-{wid}" for wid in range(workers)],
        )

    @property
    def max_inflight(self) -> int:
        """Jobs outstanding before :meth:`submit` refuses more work."""
        return 2 * self.workers + 2

    # ---------------------------------------------------------- submission

    @property
    def inflight(self) -> int:
        """Jobs submitted but not yet drained (includes buffered)."""
        return self._inflight

    def submit(
        self,
        job_id: int,
        buffer: np.ndarray,
        offsets: np.ndarray | None = None,
    ) -> None:
        """Queue one packed job (one or more sequences) for sketching.

        ``buffer`` is the contiguous uint8 code buffer; ``offsets``
        (int64, ``n_segments + 1``) delimits the sequences inside it
        and defaults to the single-segment job covering the whole
        buffer.  ``job_id`` must continue the dense submission
        sequence (0, 1, 2, ...) — ordered draining is defined over
        contiguous ids — and the pool must have in-flight headroom
        (drain first when :attr:`inflight` reaches
        :attr:`max_inflight`).

        Raises ``ValueError`` on an out-of-sequence id or a full
        pool, ``PipelineError`` when the pool is closed.
        """
        if self.closed:
            raise PipelineError("sketch pool is closed")
        if job_id != self._next_submit:
            raise ValueError(
                f"job submitted as {job_id}, expected {self._next_submit}"
            )
        if self._inflight >= self.max_inflight:
            raise ValueError("sketch pool is full; drain results first")
        if offsets is None:
            offsets = np.array([0, buffer.size], dtype=np.int64)
        slot = min(self._pool.slots, key=lambda s: s.inflight)
        self._pool.put(slot.index, job_id, (buffer, offsets))
        self._next_submit += 1
        self._inflight += 1

    # ------------------------------------------------------------ draining

    def drain(
        self, below: int
    ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Yield in-order results until fewer than ``below`` are in flight.

        Blocks on the result queue as needed; watches for worker
        crashes while waiting.  Yields ``(job_id, sketches, counts)``
        with contiguous ids continuing the last drained job;
        ``counts[i]`` rows of the concatenated ``sketches`` matrix
        belong to the job's segment ``i``.

        Raises
        ------
        PipelineError
            a job raised inside a worker (original traceback in the
            message); the pool is closed before raising.
        WorkerCrashError
            a worker process died; the pool is closed before raising.
        """
        try:
            while self._inflight >= max(1, below):
                while self._next_drain not in self._buffer:
                    _, job_id, result = self._pool.next_result()
                    self._buffer[job_id] = result
                sketches, counts = self._buffer.pop(self._next_drain)
                job = self._next_drain
                self._next_drain += 1
                self._inflight -= 1
                yield job, sketches, counts
        except BaseException:
            self.close()
            raise

    def drain_all(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Yield every outstanding result, in submission order.

        Same contract and failure behavior as :meth:`drain`; used by
        the consumer's flush/finalize path.
        """
        yield from self.drain(1)

    # ------------------------------------------------------------ lifecycle

    @property
    def closed(self) -> bool:
        """True once the pool is torn down (no longer usable)."""
        return self._pool.closed

    def close(self) -> None:
        """Tear the pool down (idempotent)."""
        self._pool.close()

    def __enter__(self) -> "ParallelSketcher":
        """Enter a ``with`` block; returns the pool itself."""
        return self

    def __exit__(self, *exc) -> None:
        """Close the pool on ``with`` block exit."""
        self.close()

    def __repr__(self) -> str:
        """Short state summary: worker count and open/closed."""
        state = "closed" if self.closed else "open"
        return f"ParallelSketcher({self.workers} workers, {state})"
