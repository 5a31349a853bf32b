"""The micro-batching scheduler: many small requests, few big batches.

MetaCache-GPU's throughput comes from keeping the index hot and
pushing *large* read batches through it; per-batch overheads
(sketch-kernel setup, table dispatch, result assembly) amortize over
the batch.  A serving workload naturally arrives as many *small*
requests.  :class:`MicroBatcher` is the adapter between the two
shapes: concurrent requests are admitted into a bounded queue,
coalesced into classification batches of up to ``max_batch_reads``
reads, dispatched to one warm :class:`~repro.api.session.QuerySession`,
which classifies each batch whole in this process (or through its
shard router), and the per-read results are demultiplexed back to
each caller in arrival order.

Requests are split across batch boundaries when needed (read results
are independent, so a request simply completes when its last slice
does); a batch never exceeds the bound, so classification-side memory
stays bounded no matter the traffic.

Concurrency model: everything except the classification itself runs
on the event loop (no locks); classification runs on a single
dedicated executor thread, so the session is only ever driven by one
thread and batches are dispatched strictly in order.

Scheduling is work-conserving: an idle dispatcher takes whatever is
queued *now* -- a lone request is classified at once, alone -- and
while a batch is classifying, newly admitted requests accumulate into
the next one.  Nothing ever waits for company, so coalescing costs no
latency when the server is idle, and under load the batcher self-paces
at the classifier's throughput, which is exactly the producer/consumer
pipelining of the paper applied to request traffic.

Requests arrive and travel packed (``(headers, PackedReads)``): a
batch made of one whole request is that request's own arrays, anything
else is sliced and concatenated once, as arrays.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Deque, Sequence

import collections
import functools
import operator

from repro.api.records import ReadClassification
from repro.api.session import QuerySession
from repro.errors import ConfigError, OverloadedError, ServerError
from repro.pipeline.packed import PackedReads
from repro.server.stats import ServerStats

__all__ = ["MicroBatcher"]


@dataclass
class _PendingRequest:
    """One submitted request while it waits for (all of) its results."""

    headers: list[str]
    reads: PackedReads
    future: asyncio.Future
    arrived_at: float
    # one slice of a batch's result sequence per batch that served it
    parts: list[Sequence[ReadClassification]] = field(default_factory=list)
    taken: int = 0  # reads already placed into a dispatched batch
    done: int = 0  # reads whose results have come back
    failed: bool = False
    served: bool = False  # counted into requests_served already

    @property
    def remaining(self) -> int:
        """Reads not yet placed into any batch."""
        return self.reads.n_reads - self.taken


class MicroBatcher:
    """Coalesces concurrent classify requests into bounded batches.

    Parameters
    ----------
    session:
        the warm :class:`~repro.api.session.QuerySession` every batch
        is dispatched to through
        :meth:`~repro.api.session.QuerySession.classify_batch`.
    max_batch_reads:
        upper bound on reads per dispatched classification batch.
    max_queued_reads:
        admission bound: reads allowed to sit undispatched before new
        requests are rejected with
        :class:`~repro.errors.OverloadedError` (a 503 upstream).  A
        request arriving at an *empty* queue is always admitted, so
        one oversized request cannot deadlock itself.
    stats:
        optional shared :class:`~repro.server.stats.ServerStats` to
        record into (the server passes its own).

    Lifecycle: :meth:`start` spins the dispatcher task up,
    :meth:`close` drains or aborts it; both are coroutines and must
    run on the owning event loop, as must :meth:`submit`.
    """

    def __init__(
        self,
        session: QuerySession,
        *,
        max_batch_reads: int = 4096,
        max_queued_reads: int = 65536,
        stats: ServerStats | None = None,
    ) -> None:
        if max_batch_reads < 1:
            raise ConfigError("max_batch_reads must be >= 1")
        if max_queued_reads < 1:
            raise ConfigError("max_queued_reads must be >= 1")
        self.session = session
        self.max_batch_reads = max_batch_reads
        self.max_queued_reads = max_queued_reads
        self.stats = stats if stats is not None else ServerStats()
        self._pending: Deque[_PendingRequest] = collections.deque()
        self._queued_reads = 0
        self._arrival = asyncio.Event()
        self._closing = False
        self._crash: Exception | None = None
        self._runner: asyncio.Task | None = None
        self._executor: ThreadPoolExecutor | None = None

    # -------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Start the dispatcher task (idempotent)."""
        if self._runner is not None:
            return
        self._closing = False
        self._crash = None
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="metacache-batcher"
        )
        self._runner = asyncio.ensure_future(self._run())

    async def close(self, *, drain: bool = True) -> None:
        """Stop the dispatcher; with ``drain`` finish queued work first.

        ``drain=True`` (graceful shutdown) classifies every admitted
        request before returning.  ``drain=False`` fails queued requests
        with :class:`~repro.errors.ServerError` immediately.  Either
        way, new :meth:`submit` calls are rejected from the moment
        close begins.  Idempotent.
        """
        self._closing = True
        if not drain:
            while self._pending:
                entry = self._pending.popleft()
                self._fail_entry(entry, ServerError("server is shutting down"))
            self._queued_reads = 0
        self._arrival.set()  # wake an idle dispatcher
        if self._runner is not None:
            await self._runner
            self._runner = None
        if self._executor is not None:
            executor, self._executor = self._executor, None
            # shutdown(wait=True) blocks until the worker thread drains;
            # run it off-loop so close() cannot stall other connections.
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: executor.shutdown(wait=True)
            )

    # ---------------------------------------------------------------- submit

    async def submit(
        self, headers: list[str], reads: PackedReads
    ) -> Sequence[ReadClassification]:
        """Submit one request's reads; resolves with its typed records.

        ``headers`` and ``reads`` are the request's own (one header
        per read) and must not be mutated afterwards.

        Results come back in the request's own read order regardless
        of how its reads were sliced across batches -- as the slice
        of the session's result sequence that served the request
        (no record is built here), concatenated only when the request
        was split across batches.  Raises
        :class:`~repro.errors.OverloadedError` when the admission
        queue is full and :class:`~repro.errors.ServerError` when the
        batcher is shutting down (or was never started).
        """
        if self._closing or self._runner is None:
            if self._crash is not None:
                # requests hitting a crashed dispatcher count as
                # failed (the HTTP layer's ServerError branch does
                # not count, so this is the single count)
                self.stats.requests_failed += 1
                raise ServerError(
                    "batch dispatcher failed: "
                    f"{type(self._crash).__name__}: {self._crash}"
                ) from self._crash
            raise ServerError("server is shutting down")
        n = reads.n_reads
        if n == 0:
            self.stats.requests_served += 1
            return []
        if (
            self._queued_reads > 0
            and self._queued_reads + n > self.max_queued_reads
        ):
            self.stats.requests_rejected += 1
            raise OverloadedError(
                f"admission queue full ({self._queued_reads} reads queued, "
                f"bound {self.max_queued_reads})",
                retry_after_seconds=1,
            )
        loop = asyncio.get_running_loop()
        entry = _PendingRequest(
            headers=headers,
            reads=reads,
            future=loop.create_future(),
            arrived_at=loop.time(),
        )
        self._pending.append(entry)
        self._queued_reads += n
        self._arrival.set()
        return await entry.future

    @property
    def queued_reads(self) -> int:
        """Reads admitted but not yet placed into a dispatched batch."""
        return self._queued_reads

    async def run_between_batches(self, fn):
        """Run ``fn()`` on the dispatch thread, between micro-batches.

        The hot-swap barrier: classification batches run strictly in
        order on the batcher's single dedicated executor thread, so a
        callable queued onto that same executor (a) waits for the
        in-flight batch to drain and (b) blocks the next batch until
        it returns -- with no pause flag, no lock on the hot path, and
        no failed requests.  The reload endpoint runs the session's
        ``swap_database`` exactly here.  Returns ``fn()``'s result;
        raises :class:`~repro.errors.ServerError` when the batcher is
        not running.
        """
        if self._closing or self._runner is None or self._executor is None:
            raise ServerError("server is shutting down")
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, fn
        )

    @property
    def crashed(self) -> bool:
        """True once the dispatcher died on an unexpected exception.

        A crashed batcher rejects every submit; ``/healthz`` reports
        it so orchestrators take the instance out of rotation.
        """
        return self._crash is not None

    # ------------------------------------------------------------ dispatcher

    async def _run(self) -> None:
        """The dispatcher loop: take what is queued, classify, demultiplex.

        The loop body as a whole is guarded: a bug anywhere in batch
        assembly, stats recording, or demultiplexing must not kill
        the dispatcher task silently -- that would leave every
        pending and future caller hanging.  Instead the batcher fails
        all queued requests, refuses new ones, and surfaces the cause
        on subsequent :meth:`submit` calls.
        """
        loop = asyncio.get_running_loop()
        # the slices of the batch currently being processed: their
        # entries are already popped from _pending, so the crash
        # handler must fail them explicitly
        inflight: list[tuple[_PendingRequest, int]] = []
        try:
            while True:
                while not self._pending and not self._closing:
                    self._arrival.clear()
                    await self._arrival.wait()
                if not self._pending:
                    return  # closing and drained
                inflight = []
                batch = self._take_batch(inflight)
                if batch is None:
                    continue
                headers, reads = batch
                self.stats.batches.record(reads.n_reads)
                try:
                    records = await loop.run_in_executor(
                        self._executor,
                        self.session.classify_batch,
                        headers,
                        reads,
                    )
                except Exception as exc:  # noqa: BLE001 - to the callers
                    for entry, _count in inflight:
                        self._fail_entry(entry, exc)
                    inflight = []
                    continue
                if len(records) != reads.n_reads:
                    # a short/long result would silently corrupt the
                    # demux offsets and strand callers forever: fail
                    # the whole batch loudly instead
                    mismatch = ServerError(
                        f"classifier returned {len(records)} records "
                        f"for a batch of {reads.n_reads} reads"
                    )
                    for entry, _count in inflight:
                        self._fail_entry(entry, mismatch)
                    inflight = []
                    continue
                self._demux(loop, records, inflight)
                inflight = []
        except Exception as exc:  # noqa: BLE001 - dispatcher last resort
            self._closing = True
            self._crash = exc
            failure = ServerError(
                f"batch dispatcher failed: {type(exc).__name__}: {exc}"
            )
            failure.__cause__ = exc
            for entry, _count in inflight:
                self._fail_entry(entry, failure)
            while self._pending:
                self._fail_entry(self._pending.popleft(), failure)
            self._queued_reads = 0

    def _take_batch(
        self, slices: list[tuple[_PendingRequest, int]]
    ) -> tuple[list[str], PackedReads] | None:
        """Pop up to ``max_batch_reads`` reads FIFO, splitting the tail.

        Appends ``(entry, count)`` to the caller-owned
        ``slices`` list *as each entry is taken* -- before any
        allocation that could raise -- so the dispatcher's crash
        handler always has a record of every entry this call popped
        off the queue (an orphaned entry would hang its caller
        forever).  Returns ``(headers, reads)`` -- the reads one whole
        request's own, untouched, when that is all the batch holds --
        or ``None`` when every queued entry had already failed.
        """
        budget = self.max_batch_reads
        while self._pending and budget > 0:
            entry = self._pending[0]
            if entry.failed:  # failed mid-split in an earlier batch
                self._queued_reads -= entry.remaining
                entry.taken = entry.reads.n_reads
                self._pending.popleft()
                continue
            take = min(entry.remaining, budget)
            slices.append((entry, take))
            entry.taken += take
            self._queued_reads -= take
            budget -= take
            if entry.remaining == 0:
                self._pending.popleft()
        if not slices:
            return None
        headers: list[str] = []
        parts: list[PackedReads] = []
        for entry, take in slices:
            start = entry.taken - take  # an entry is taken from once per batch
            headers.extend(entry.headers[start : entry.taken])
            parts.append(entry.reads.slice_reads(start, entry.taken))
        return headers, PackedReads.concatenate(parts)

    def _demux(
        self,
        loop: asyncio.AbstractEventLoop,
        records: Sequence[ReadClassification],
        slices: list[tuple[_PendingRequest, int]],
    ) -> None:
        """Slice one batch's records back onto the requests they serve.

        Batches are dispatched in order and each takes a request's
        reads in order, so a request's parts arrive in read order.
        """
        offset = 0
        for entry, count in slices:
            entry.parts.append(records[offset : offset + count])
            entry.done += count
            offset += count
            if entry.done == entry.reads.n_reads and not entry.failed:
                if not entry.future.done():  # caller may have disconnected
                    entry.future.set_result(
                        functools.reduce(operator.add, entry.parts)
                    )
                entry.served = True
                self.stats.requests_served += 1
                self.stats.reads_served += entry.reads.n_reads
                self.stats.latency.record(loop.time() - entry.arrived_at)

    def _fail_entry(self, entry: _PendingRequest, exc: Exception) -> None:
        """Resolve one request's future with an error (at most once).

        An entry already counted as served (e.g. demultiplexed just
        before a dispatcher crash) stays served -- failing it again
        would double-count the request in both counters.
        """
        if entry.failed or entry.served:
            return
        entry.failed = True
        # mark the exception so the HTTP layer knows this failure is
        # already in requests_failed and does not count it again when
        # the error propagates out of submit()
        exc.batcher_counted = True  # type: ignore[attr-defined]
        if not entry.future.done():
            entry.future.set_exception(exc)
        self.stats.requests_failed += 1
