"""Warm query sessions: classify many batches against one database.

"querying can be executed ... in an interactive session, which holds
the database in memory and allows for performing an arbitrary number
of queries in succession" (Section 4).  :class:`QuerySession` is that
mode for the public API: it owns the database reference and the
default decision-rule parameters, and exposes three classification
shapes:

- :meth:`classify` -- one in-memory batch, typed records back;
- :meth:`classify_iter` -- a lazy generator over an iterable of
  batches: only one batch of reads is ever materialized, so millions
  of reads stream through bounded memory;
- :meth:`classify_files` -- FASTA/FASTQ file(s) pushed through the
  :mod:`repro.pipeline` producer/consumer machinery into a
  :class:`~repro.api.sinks.Sink`.  The in-process consumer splits
  every batch into contiguous read slices, two per available core, and
  classifies them on threads sharing the one database, one thread
  pinned per core for the call; a session opened with ``workers > 1``
  feeds the producer stream to the multi-process engine
  (:mod:`repro.parallel`) instead.

Every shape only coerces its input to ``(headers, PackedReads)`` and
hands it, or its slices, to one private seam,
:meth:`QuerySession._compute` (the paper's single per-batch query
pipeline, Section 5.2), or streams the same items through the worker
pool; either way the results re-enter one record/report tail,
:meth:`QuerySession._finish`, once per batch.  Per-read results are
therefore identical across the three shapes, worker counts and slice
counts (candidate generation and the top-hit/LCA rule are per-read,
and slices and parallel chunks are reassembled in order), which the
test suite asserts down to byte-identical TSV output.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import fields
from typing import Any, Iterable, Iterator, Mapping

import numpy as np

from repro.api.records import ClassificationColumns, ClassificationRun, RunReport
from repro.api.sinks import Sink, write_records
from repro.core.classify import Classification, classify_reads
from repro.core.config import ClassificationParams
from repro.core.database import Database
from repro.core.mapping import ReadMapping, map_reads
from repro.core.query import QueryResult, query_database
from repro.errors import (
    ConfigError,
    InvalidReadError,
    MetaCacheError,
    PipelineError,
    ReloadError,
)
from repro.genomics.alphabet import encode_sequence
from repro.parallel.engine import ParallelClassifier
from repro.pipeline.packed import PackedReads
from repro.pipeline.producer import SequenceBatch, read_file_producer
from repro.pipeline.queues import ClosableQueue
from repro.pipeline.scheduler import run_producer_consumer
from repro.shard.router import ShardRouter
from repro.util.timer import StageTimer

__all__ = ["QuerySession", "iter_batches", "DEFAULT_BATCH_SIZE"]

DEFAULT_BATCH_SIZE = 4096


def iter_batches(reads: Iterable[Any], batch_size: int) -> Iterator[list[Any]]:
    """Chunk any read iterable into lists of at most ``batch_size``.

    Lazy: pulls from ``reads`` only as batches are consumed, so it
    composes with :meth:`QuerySession.classify_iter` into a bounded-
    memory streaming pipeline.
    """
    if batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    it = iter(reads)
    while True:
        batch = list(itertools.islice(it, batch_size))
        if not batch:
            return
        yield batch


def _coerce_read(read: Any, index: int) -> tuple[str | None, np.ndarray]:
    """Accept the read shapes the API supports; returns (header, codes).

    Supported: encoded ``np.ndarray``, plain sequence ``str``,
    ``(header, sequence)`` pairs, and any object with ``header`` and
    ``sequence`` attributes (``FastaRecord``/``FastqRecord``).
    """
    if isinstance(read, np.ndarray):
        return None, read
    if isinstance(read, str):
        return None, encode_sequence(read)
    if isinstance(read, tuple) and len(read) == 2:
        header, seq = read
        if not isinstance(header, str):
            raise InvalidReadError(
                f"read {index}: pair form must be (header: str, sequence), "
                f"got header of type {type(header).__name__}"
            )
        return header, _coerce_read(seq, index)[1]
    if hasattr(read, "header") and hasattr(read, "sequence"):
        return str(read.header), _coerce_read(read.sequence, index)[1]
    raise InvalidReadError(
        f"read {index}: unsupported type {type(read).__name__} "
        "(expected ndarray, str, (header, sequence) or FASTA/FASTQ record)"
    )


def _coerce_batch(
    reads: SequenceBatch | Iterable[Any], id_offset: int
) -> tuple[list[str], list[np.ndarray]]:
    """Normalize a batch into (headers, encoded sequences)."""
    if isinstance(reads, SequenceBatch):
        return list(reads.headers), list(reads.sequences)
    headers: list[str] = []
    seqs: list[np.ndarray] = []
    for i, read in enumerate(reads):
        header, codes = _coerce_read(read, i)
        headers.append(header if header is not None else f"read_{id_offset + i}")
        seqs.append(codes)
    return headers, seqs


def _pack_batch(
    reads: Any, mates: Any, id_offset: int
) -> tuple[list[str], PackedReads]:
    """Coerce one batch (+ optional mates) to the seam's input shape."""
    if isinstance(reads, SequenceBatch) and mates is None:
        # the batch's cached packed form, no list round-trip
        return list(reads.headers), reads.packed()
    headers, seqs = _coerce_batch(reads, id_offset)
    mate_seqs = None
    if mates is not None:
        _, mate_seqs = _coerce_batch(mates, id_offset)
        if len(mate_seqs) != len(seqs):
            raise InvalidReadError(
                f"mate batch has {len(mate_seqs)} reads, expected {len(seqs)}"
            )
    return headers, PackedReads.from_reads(seqs, mate_seqs)


#: slices per thread: a pool thread's heap arena keeps free memory up
#: to its largest recent allocation, so peak RSS grows with the slice
#: size; with two half-size slices per thread it stays at the unsplit
#: batch's on the dense workload
_PIECES = 2


def _available_cores() -> int:
    """Cores this process may run on (the split width of a batch)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


@contextlib.contextmanager
def _slice_threads(k: int) -> Iterator[ThreadPoolExecutor]:
    """``k - 1`` pool threads that, with the calling thread, run slices.

    Each of the ``k`` threads is pinned to its own core while the block
    runs, and the calling thread's affinity is restored on exit.
    Without the pins a pool thread woken by the caller may stay queued
    on the caller's core for a whole batch: on a 2-vCPU Linux VM the
    slices then ran one after the other, not side by side.  The caller
    always takes the first allowed core, so two ``classify_files``
    calls running at once in one process share their cores.
    """
    try:
        mask = os.sched_getaffinity(0)
    except AttributeError:  # no affinity API: leave placement to the OS
        with ThreadPoolExecutor(k - 1) as pool:
            yield pool
        return
    cores = sorted(mask)
    others = itertools.cycle(cores[1:] or cores)
    os.sched_setaffinity(0, {cores[0]})
    try:
        with ThreadPoolExecutor(
            k - 1, initializer=lambda: os.sched_setaffinity(0, {next(others)})
        ) as pool:
            yield pool
    finally:
        os.sched_setaffinity(0, mask)


def _empty_classification() -> Classification:
    z = np.zeros(0, dtype=np.int64)
    return Classification(z, z.copy(), z.copy(), z.copy(), z.copy())


class QuerySession:
    """Holds warm state (database + parameters) for repeated queries.

    Sessions are cheap views over a database; open as many as needed
    with different parameters.  ``session.report`` accumulates a
    merged :class:`RunReport` across every call, mirroring the
    interactive-session statistics of the original tool.

    ``workers`` is the fan-out of :meth:`classify_files`, fixed for
    the session's lifetime and read by no other method: with
    ``workers > 1`` the first call starts (and later calls reuse) a
    :class:`~repro.parallel.ParallelClassifier` whose workers
    memory-map the database.  Call :meth:`close` (or use the session
    as a context manager) to shut the worker pool down; sessions that
    never fan out hold no resources and need no close.

    ``router`` routes candidate generation through a
    :class:`~repro.shard.ShardRouter` (sharded, replicated serving;
    see ``MetaCache.open(shards=..., replicas=...)``) instead of
    querying ``database`` in-process.  The database reference is
    still used for classification and record formatting -- output is
    byte-identical either way.  The router is owned by whoever built
    it (normally the :class:`~repro.api.MetaCache` handle), not by
    this session; it is shared across the handle's sessions and
    survives :meth:`close`.  A routed session already runs one
    process per shard replica, so ``router`` with ``workers > 1``
    raises :class:`~repro.errors.ConfigError`.
    """

    def __init__(
        self,
        database: Database,
        params: ClassificationParams | None = None,
        workers: int = 1,
        router: ShardRouter | None = None,
    ) -> None:
        if workers < 1:
            raise ConfigError("workers must be >= 1")
        if workers > 1 and router is not None:
            raise ConfigError(
                "a routed session cannot fan out to workers: the shard "
                "router already runs one process per shard replica"
            )
        self.database = database
        self.params = params or database.params.classification
        self.workers = workers
        self.router = router
        self.report = RunReport()
        self.n_queries = 0
        self._engine: ParallelClassifier | None = None

    # ------------------------------------------------------------- the seam

    def _compute(
        self, db: Database, packed: PackedReads, cp: ClassificationParams
    ) -> tuple[Classification, QueryResult]:
        """Steps 1-8 plus the top-hit/LCA rule for one non-empty batch.

        ``db`` must be retained by the caller.  Thread-safe: the
        database is only read, so several slices of one batch may run
        here at once.
        """
        if self.router is not None:
            result = self.router.query(packed, params=cp)
        else:
            result = query_database(
                db, packed, params=db.params.replace(classification=cp)
            )
        return classify_reads(db, result.candidates, cp), result

    def _run_batch(
        self, headers: list[str], packed: PackedReads, cp: ClassificationParams
    ) -> ClassificationRun:
        """Classify one packed batch whole, on the calling thread."""
        if not packed.n_reads:
            return self._finish(self.database, headers, _empty_classification())
        # pin the database for this batch: a concurrent hot-swap
        # (swap_database + close on the old index) defers its unmap
        # until the release below, so the arrays stay mapped here
        db = self.database.retain()
        try:
            cls, result = self._compute(db, packed, cp)
            return self._finish(
                db, headers, cls, result.read_lengths, result.stages.stages, result
            )
        finally:
            db.release()

    def _run_split(
        self,
        headers: list[str],
        packed: PackedReads,
        cp: ClassificationParams,
        pool: ThreadPoolExecutor | None,
        k: int,
    ) -> ClassificationRun:
        """Classify one packed batch as contiguous read slices on ``k`` threads.

        The batch is cut at read boundaries into :data:`_PIECES` ``* k``
        slices (fewer for a smaller batch), and each thread classifies
        a contiguous share of them in turn: share 0 on the calling
        thread, whose heap arena is warm, the others on ``pool``'s
        ``k - 1`` threads, all under the batch's one ``retain()``.  The
        slices' columns are joined in read order and finished once, so
        the run is identical to :meth:`_run_batch`'s for every ``k``;
        with ``k == 1`` (no ``pool``) or a one-read batch it *is*
        :meth:`_run_batch`.
        """
        n = packed.n_reads
        m = min(_PIECES * k, n)
        if pool is None or m <= 1:
            return self._run_batch(headers, packed, cp)
        k = min(k, m)
        bounds = [n * i // m for i in range(m + 1)]
        slices = [packed.slice_reads(a, b) for a, b in zip(bounds, bounds[1:])]
        shares = [slices[j * m // k : (j + 1) * m // k] for j in range(k)]

        def run(share: list[PackedReads]) -> list[tuple[Classification, QueryResult]]:
            return [self._compute(db, piece, cp) for piece in share]

        db = self.database.retain()  # one pin for all slices, as above
        futures = []
        try:
            futures = [pool.submit(run, share) for share in shares[1:]]
            parts = run(shares[0])
            for f in futures:
                parts += f.result()
        finally:
            # no slice may outlive the pin, even when one of them failed
            wait(futures)
            db.release()
        cls = Classification(
            *(
                np.concatenate([getattr(c, f.name) for c, _ in parts])
                for f in fields(Classification)
            )
        )
        stages = functools.reduce(
            StageTimer.merge, (r.stages for _, r in parts), StageTimer()
        )
        read_lengths = np.concatenate([r.read_lengths for _, r in parts])
        return self._finish(db, headers, cls, read_lengths, stages.stages)

    def _finish(
        self,
        db: Database,
        headers: list[str],
        cls: Classification,
        read_lengths: np.ndarray | None = None,
        stages: Mapping[str, float] | None = None,
        query: QueryResult | None = None,
    ) -> ClassificationRun:
        """Format one classified batch: record columns + accounted report.

        The tail every batch goes through, whether it was classified
        by :meth:`_run_batch`, as slices by :meth:`_run_split` or by a
        pool worker.
        """
        records = ClassificationColumns.resolve(db, headers, cls, read_lengths)
        report = RunReport(
            n_reads=len(headers),
            n_classified=cls.n_classified,
            n_batches=1,
            max_batch_reads=len(headers),
            total_seconds=sum((stages or {}).values()),
            stages=dict(stages or {}),
        )
        # one C-level pass over the taxon column, keyed in order of
        # first appearance (a sort-based np.unique costs more on the
        # 8-read batches of the serving path and loses that order)
        counts = collections.Counter(records.columns[1])
        counts.pop(0, None)  # unclassified
        report.taxon_counts = dict(counts)
        self.n_queries += 1
        self.report.merge(report)
        return ClassificationRun(records, report, cls, query)

    def _runs(
        self,
        items: Iterable[tuple[list[str], PackedReads]],
        cp: ClassificationParams,
        engine: ParallelClassifier | None,
        pool: ThreadPoolExecutor | None,
        k: int,
    ) -> Iterator[ClassificationRun]:
        """Classify a stream of packed batches, in order.

        The one consumer loop: in-process through :meth:`_run_split`
        across ``k`` threads (``pool`` holds the ``k - 1`` beside this
        one), or -- given a worker engine -- the same items through
        :meth:`ParallelClassifier.classify_chunks`, whose ordered
        results are formatted with the session's own database.
        """
        if engine is None:
            for headers, packed in items:
                yield self._run_split(headers, packed, cp, pool, k)
            return
        # no retain: the workers hold their own attachment, and record
        # formatting reads only metadata, which outlives Database.close
        db = self.database
        for chunk in engine.classify_chunks(items, params=cp):
            yield self._finish(
                db,
                chunk.headers,
                chunk.classification,
                chunk.read_lengths,
                chunk.stage_seconds,
            )

    # ------------------------------------------------------------ one batch

    def classify(
        self,
        reads: Any,
        mates: Any = None,
        *,
        params: ClassificationParams | None = None,
        _id_offset: int = 0,
    ) -> ClassificationRun:
        """Classify one in-memory batch of reads.

        ``params`` overrides the session's decision rule for this call
        only; sketching parameters always come from the database (they
        are baked into the index).
        """
        headers, packed = _pack_batch(reads, mates, _id_offset)
        return self._run_batch(headers, packed, params or self.params)

    def classify_batch(
        self,
        headers: list[str],
        sequences: "list[np.ndarray] | PackedReads",
        *,
        params: ClassificationParams | None = None,
    ) -> ClassificationColumns:
        """Classify one pre-encoded batch into (lazy) typed records.

        The serving hot path: the classification server's
        micro-batcher hands coalesced request batches here, already
        packed.  It is :meth:`classify` minus the run wrapper: the
        batch is classified whole on the calling thread, whatever the
        session's ``workers``.  The result is the batch's
        :class:`~repro.api.records.ClassificationColumns`: slice it,
        hand it to a sink's ``write_all``, or iterate it for records.

        ``sequences`` is a :class:`~repro.pipeline.packed.PackedReads`
        or, for callers that hold per-read arrays, a list of encoded
        reads (uint8 code arrays) that is packed here; either way one
        header per read, else :class:`repro.errors.InvalidReadError`.
        """
        packed = (
            sequences
            if isinstance(sequences, PackedReads)
            else PackedReads.from_reads(sequences)
        )
        n = packed.n_reads
        if len(headers) != n:
            raise InvalidReadError(
                f"classify_batch: {len(headers)} headers for {n} sequences"
            )
        return self._run_batch(headers, packed, params or self.params).records

    # ------------------------------------------------------------ streaming

    def classify_iter(
        self,
        batches: Iterable[Any],
        *,
        params: ClassificationParams | None = None,
    ) -> Iterator[ClassificationRun]:
        """Lazily classify an iterable of batches, yielding per-batch runs.

        Each batch may be a collection of reads (any shape
        :meth:`classify` accepts), a
        :class:`~repro.pipeline.producer.SequenceBatch`, or a
        ``(reads, mates)`` pair for paired-end data -- a 2-tuple whose
        members are both batches themselves (lists or
        ``SequenceBatch``); any other tuple is a batch of reads.
        Batches are pulled one at a time, so peak resident reads equal
        the largest single batch -- feed it :func:`iter_batches` over
        a generator and millions of reads stream through constant
        memory.
        """
        offset = 0
        for batch in batches:
            reads, mates = batch, None
            if (
                isinstance(batch, tuple)
                and len(batch) == 2
                and all(isinstance(part, (list, SequenceBatch)) for part in batch)
            ):
                reads, mates = batch
            run = self.classify(reads, mates, params=params, _id_offset=offset)
            offset += len(run.records)
            yield run

    def classify_files(
        self,
        reads_path: str | os.PathLike[str],
        mates_path: str | os.PathLike[str] | None = None,
        *,
        sink: Sink | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        params: ClassificationParams | None = None,
        queue_depth: int = 4,
    ) -> RunReport:
        """Classify FASTA/FASTQ file(s) (plain or gzip'd) into a sink.

        Runs the paper's producer/consumer scheme
        (:mod:`repro.pipeline`): a producer thread parses, encodes and
        packs the file -- or both files of a pair, read in lock step
        (pairing is positional) -- into bounded batches while the
        consumer end classifies and writes, overlapping I/O with
        compute exactly like the original's query pipeline.

        The session's ``workers`` selects the consumer end: ``1``
        classifies in this process, each batch split into contiguous
        read slices, two per available core (pairs never split), and
        the slices queried on threads that share the one database --
        NumPy's kernels release the GIL, so the slices overlap -- then
        joined in order and finished once; ``N > 1`` feeds the same
        producer stream to N worker processes sharing the database
        zero-copy (:mod:`repro.parallel`), started on the first call
        and reused by later ones, with results reassembled in
        submission order.  Output is byte-identical
        either way and for any core count.  A routed session keeps one
        slice per batch: the router already fans out across processes.
        The slice threads live only for the duration of the call; while
        it runs, they and the calling thread are each pinned to one of
        the process's cores, and the caller's affinity is restored on
        return.

        Raises
        ------
        PipelineError
            when the producer or a worker fails for a reason that is
            not already a typed :class:`MetaCacheError`; the message
            names ``reads_path`` and chains the original exception.
            Worker crashes raise the :class:`WorkerCrashError`
            subclass, likewise naming the file.
        """
        try:
            engine = self._ensure_engine() if self.workers > 1 else None
            # slices per batch on the in-process consumer (the engine
            # or a router already fans every batch out across processes)
            in_process = engine is None and self.router is None
            k = _available_cores() if in_process else 1
            cp = params or self.params
            # When the consumer dies mid-stream (BrokenPipeError on a
            # closed stdout, disk-full in the sink, a worker crash ...)
            # the producer must not stay blocked on a full queue
            # forever: the consumer sets `cancelled` and drains the
            # queue so the producer's pending put() returns, sees the
            # flag, and closes -- letting the scheduler join both
            # threads and re-raise the consumer's error.
            cancelled = threading.Event()

            def produce(q: ClosableQueue) -> None:
                read_file_producer(
                    reads_path, q, batch_size, mates_path, cancelled=cancelled
                )

            def consume(q: ClosableQueue) -> RunReport:
                total = RunReport()
                # pinned from the consumer thread, so the producer
                # thread keeps its own placement
                threads = _slice_threads(k) if k > 1 else contextlib.nullcontext()
                try:
                    with threads as pool:
                        for run in self._runs(q, cp, engine, pool, k):
                            if sink is not None:
                                write_records(sink, run.records)
                            total.merge(run.report)
                except BaseException:
                    cancelled.set()
                    for _ in q:  # unblock the producer, eat to end-of-stream
                        pass
                    raise
                return total

            results = run_producer_consumer(
                producers=[produce], consumers=[consume], queue_size=queue_depth
            )
            return results[0]
        except BrokenPipeError:
            raise  # the CLI's SIGPIPE contract: die quietly, exit 141
        except PipelineError as exc:
            raise type(exc)(f"while classifying {reads_path}: {exc}") from exc
        except MetaCacheError:
            raise  # already typed and self-describing
        except Exception as exc:
            raise PipelineError(
                f"while classifying {reads_path}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc

    def _ensure_engine(self) -> ParallelClassifier:
        """Start (or reuse) the session's ``workers``-process pool.

        The engine persists across calls so repeated
        :meth:`classify_files` runs amortize process spawn and, for a
        database that is not mmap-backed, the one-time spill to a
        private v2 directory.  A crashed/closed engine is replaced.
        """
        if self._engine is None or self._engine.closed:
            self._close_engine()
            self._engine = ParallelClassifier(
                self.database, self.workers, params=self.params
            )
        return self._engine

    def _close_engine(self) -> None:
        if self._engine is not None:
            self._engine.close()
            self._engine = None

    # ------------------------------------------------------------ lifecycle

    def swap_database(self, new_db: Database) -> Database:
        """Atomically repoint this session at ``new_db``; returns the old.

        The hot-swap primitive: the session's worker pool (bound to
        the old index's files) is shut down first, the
        database reference is then replaced in one assignment, and the
        *old* database is handed back to the caller -- who owns its
        remaining lifetime and typically calls ``old.close()``, which
        defers the actual unmap until batches pinned via
        :meth:`Database.retain` have drained.  The caller must
        serialize the swap against an in-flight :meth:`classify_files`
        call on a ``workers > 1`` session, whose pool it shuts down (the
        serving layer runs it on the micro-batcher's dispatch thread,
        i.e. between micro-batches); every other call, from any thread,
        is safe through the retain/release protocol.

        Raises
        ------
        ReloadError
            for routed (sharded) sessions: shard plans pin partition
            ids to the directory they were computed over, so the
            router cannot be repointed in place.
        """
        if self.router is not None:
            raise ReloadError(
                "sharded sessions cannot hot-swap their index: the shard "
                "plan is pinned to the saved directory it was computed "
                "over; restart the service on the new directory instead"
            )
        old = self.database
        if new_db is old:
            return old
        self._close_engine()
        self.database = new_db
        return old

    def close(self) -> None:
        """Shut down the worker pool, if one was started (idempotent)."""
        self._close_engine()

    def __enter__(self) -> "QuerySession":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------- mapping

    def map(
        self,
        reads: Any,
        mates: Any = None,
        *,
        min_hits: int | None = None,
    ) -> ReadMapping:
        """Map one batch to candidate reference regions (Section 6.2)."""
        _, seqs = _coerce_batch(reads, 0)
        mate_seqs = None
        if mates is not None:
            _, mate_seqs = _coerce_batch(mates, 0)
        # pinned like every classify path, so a reload landing mid-call
        # defers the old index's close until the mapping is done
        db = self.database.retain()
        try:
            mapping = map_reads(db, seqs, mates=mate_seqs, min_hits=min_hits)
        finally:
            db.release()
        self.n_queries += 1
        return mapping

    def summary(self) -> str:
        """One-line session summary across every call so far."""
        return f"{self.n_queries} queries: {self.report.summary()}"
