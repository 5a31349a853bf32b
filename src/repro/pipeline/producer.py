"""The producer: parse sequence files into batches on a thread of its own.

Section 4.1: "Multiple producer threads parse the genome files to
split the data into header and sequence strings which are then pushed
into the queue."  Here one producer thread does that (plus encoding,
which in the GPU version happens device-side but costs the same
either way in the simulation): :func:`prefetched` runs any generator
on a thread ahead of its caller, through a bounded queue.  The
generators are :func:`reference_blocks`, which feeds the build side
in :class:`ReferenceBlock` s of about :data:`BLOCK_BASES` bases, and
:func:`read_batches`, which feeds the query side in
``(headers, PackedReads)`` batches -- the one batch shape the session,
its slice threads and the worker pool consume.  Both encode once per
block.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import queue
import threading
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, TypeVar

import numpy as np

from repro.errors import InvalidReadError
from repro.genomics.io import iter_fasta_blocks, iter_sequence_blocks
from repro.pipeline.packed import PackedReads

__all__ = [
    "BLOCK_BASES",
    "READ_DEPTH",
    "REFERENCE_DEPTH",
    "ReferenceBlock",
    "prefetched",
    "read_batches",
    "reference_blocks",
]

T = TypeVar("T")

#: bases per reference block: references join a block until the next
#: one would take it past this; a longer reference is a block of its own
BLOCK_BASES = 1 << 16

#: read batches the query producer may hold ready ahead of the consumer
READ_DEPTH = 4

#: reference blocks the build producer may hold ready ahead of the consumer
REFERENCE_DEPTH = 8


class _End:
    """The producer's last item: the stream ended, with ``error`` if it
    failed."""

    def __init__(self, error: BaseException | None = None) -> None:
        self.error = error


@contextlib.contextmanager
def prefetched(items: Iterable[T], depth: int) -> Iterator[Iterator[T]]:
    """Iterate ``items`` on a producer thread, up to ``depth`` items ahead.

    The thread starts when the ``with`` block is entered, so it takes
    the caller's CPU affinity as it is at that moment (threads inherit
    their creator's).  The caller iterates the block's value on its own
    thread: consumers allocate the large per-batch temporaries, and
    glibc keeps a heap arena per thread, so a consumer on a fresh
    thread per call grew peak RSS with every call (130 -> 190 MiB over
    four paired classify passes) where the calling thread's stays
    flat.  An exception raised by ``items`` is re-raised there, after
    the items produced before it.  Leaving the block for any reason
    stops the producer after the item it is making, drains the queue
    and joins the thread; ``items`` is closed on the producer thread
    (a generator's ``finally`` blocks and ``with`` statements run
    there), whether it ran to its end or not.
    """
    ready: queue.Queue[T | _End] = queue.Queue(depth)
    stop = threading.Event()

    def produce() -> None:
        end = _End()
        try:
            source = iter(items)
            try:
                for item in source:
                    ready.put(item)
                    if stop.is_set():
                        break
            finally:
                close = getattr(source, "close", None)
                if close is not None:
                    close()
        except BaseException as exc:  # noqa: BLE001 - raised by the consumer
            end = _End(exc)
        ready.put(end)

    ended = False

    def stream() -> Iterator[T]:
        nonlocal ended
        while not ended:
            item = ready.get()
            if isinstance(item, _End):
                ended = True
                if item.error is not None:
                    raise item.error
                return
            yield item

    thread = threading.Thread(target=produce, name="producer", daemon=True)
    thread.start()
    try:
        yield stream()
    finally:
        stop.set()
        while not ended:  # unblock the producer's put, up to its end
            ended = isinstance(ready.get(), _End)
        thread.join()


@dataclass(frozen=True)
class ReferenceBlock:
    """Consecutive references of one file, encoded into one buffer.

    Segment ``i`` of ``packed`` is the sequence of ``headers[i]``;
    ``path`` names the file they came from (for error messages).
    """

    path: str
    headers: list[str]
    packed: PackedReads

    def __len__(self) -> int:
        return len(self.headers)


def _block_spans(sizes: np.ndarray, final: bool) -> list[tuple[int, int]]:
    """``[start, stop)`` of each block of records with these base counts.

    A block takes records until the next one would take it past
    :data:`BLOCK_BASES` (one longer record is a block of its own).
    Unless ``final``, records that may still share a block with ones
    not yet parsed are left out.
    """
    ends = np.cumsum(sizes)
    spans: list[tuple[int, int]] = []
    start = 0
    while start < sizes.size:
        base = int(ends[start - 1]) if start else 0
        stop = int(np.searchsorted(ends, base + BLOCK_BASES, side="right"))
        stop = max(stop, start + 1)
        if stop == sizes.size and not final:
            break
        spans.append((start, stop))
        start = stop
    return spans


def reference_blocks(paths: Sequence[str | os.PathLike]) -> Iterator[ReferenceBlock]:
    """The references of FASTA files, in order, as :class:`ReferenceBlock` s.

    Files are read in order, plain or gzip'd, a chunk at a time by
    :func:`repro.genomics.io.iter_fasta_blocks`, and their records
    recut into blocks by bases (:data:`BLOCK_BASES`), each encoded
    with one :meth:`PackedReads.from_ascii`.  A block never spans two
    files.
    """
    for path in paths:
        names: list[str] = []
        texts: list[bytes] = []  # parsed, not yet in a block
        # None marks the end of the file: every record is final
        for parsed in itertools.chain(iter_fasta_blocks(path), [None]):
            if parsed is not None:
                names += parsed[0]
                texts += parsed[1]
            sizes = np.fromiter(map(len, texts), np.int64, len(texts))
            spans = _block_spans(sizes, final=parsed is None)
            for start, stop in spans:
                yield ReferenceBlock(
                    str(path), names[start:stop],
                    PackedReads.from_ascii(texts[start:stop]),
                )
            if spans:
                done = spans[-1][1]
                del names[:done], texts[:done]


def read_batches(
    path: str | os.PathLike,
    batch_size: int,
    mates_path: str | os.PathLike | None = None,
) -> Iterator[tuple[list[str], PackedReads]]:
    """The reads of a file (or a pair of files) as packed batches.

    The query side's producer: FASTA or FASTQ, plain or gzip'd,
    sniffed by :func:`repro.genomics.io.iter_sequence_blocks`.  Each
    item is ``(headers, PackedReads)`` for up to ``batch_size`` reads
    -- the block's sequences joined, encoded *and* packed here a batch
    at a time (:meth:`PackedReads.from_ascii`), so the consumer (the
    session's slice threads or the worker pool's chunk pickling)
    receives the contiguous form without paying for it.  With
    ``mates_path`` the two files are read in lock step (pairing is
    positional, headers come from ``path``) and packed
    mate-interleaved; files of different lengths raise
    :class:`~repro.errors.InvalidReadError`.
    """
    blocks = iter_sequence_blocks(path, batch_size)
    mate_blocks = (
        None if mates_path is None else iter_sequence_blocks(mates_path, batch_size)
    )
    while True:
        headers, sequences = next(blocks, ([], []))
        mates = None
        if mate_blocks is not None:
            # past the last read, one more block of mates is asked
            # for, so a longer mates file is caught too
            _, mates = next(mate_blocks, ([], []))
            if len(mates) != len(sequences):
                raise InvalidReadError(
                    f"paired files differ in length: {path} vs {mates_path}"
                )
        if not headers:
            return
        yield headers, PackedReads.from_ascii(sequences, mates)
