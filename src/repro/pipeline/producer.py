"""Producer threads: parse sequence files into batches.

Section 4.1: "Multiple producer threads parse the genome files to
split the data into header and sequence strings which are then pushed
into the queue."  The producers here do exactly that (plus encoding,
which in the GPU version happens device-side but costs the same
either way in the simulation).  :func:`fasta_producer` feeds the
build side in :class:`ReferenceBlock` s of about :data:`BLOCK_BASES`
bases, :func:`read_file_producer` the query side in
``(headers, PackedReads)`` batches -- the one batch shape the session,
its slice threads and the worker pool consume.  Both encode once per
block.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import InvalidReadError
from repro.genomics.io import iter_fasta_blocks, iter_sequence_blocks
from repro.pipeline.packed import PackedReads
from repro.pipeline.queues import ClosableQueue

__all__ = [
    "BLOCK_BASES",
    "ReferenceBlock",
    "fasta_producer",
    "read_file_producer",
]

#: bases per reference block: references join a block until the next
#: one would take it past this; a longer reference is a block of its own
BLOCK_BASES = 1 << 16


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


def fasta_producer(
    paths: Sequence[str | os.PathLike], out: ClosableQueue
) -> int:
    """Parse FASTA files into the queue; returns sequences produced.

    Files are read in order, plain or gzip'd, a chunk at a time by
    :func:`repro.genomics.io.iter_fasta_blocks`, and their records
    recut into :class:`ReferenceBlock` s by bases
    (:data:`BLOCK_BASES`), each encoded with one
    :meth:`PackedReads.from_ascii`.  A block never spans two files.
    Must be called with the queue already registered for this
    producer; closes its registration when done (even on error).
    """
    produced = 0
    try:
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
                    out.put(ReferenceBlock(
                        str(path), names[start:stop],
                        PackedReads.from_ascii(texts[start:stop]),
                    ))
                if spans:
                    done = spans[-1][1]
                    del names[:done], texts[:done]
                    produced += done
    finally:
        out.close_producer()
    return produced


def read_file_producer(
    path: str | os.PathLike,
    out: ClosableQueue,
    batch_size: int,
    mates_path: str | os.PathLike | None = None,
    cancelled: threading.Event | None = None,
) -> int:
    """Parse read file(s) into packed batches on the queue; returns reads.

    The one producer behind the query side of the pipeline: FASTA or
    FASTQ, plain or gzip'd, sniffed by
    :func:`repro.genomics.io.iter_sequence_blocks`.  Each queue item
    is ``(headers, PackedReads)`` for up to ``batch_size`` reads --
    the block's sequences joined, encoded *and* packed here a batch at
    a time (:meth:`PackedReads.from_ascii`), so the consumer (the
    serial query loop or the worker pool's chunk pickling) receives
    the contiguous form without paying for it.  With ``mates_path`` the two files are read in lock
    step (pairing is positional, headers come from ``path``) and
    packed mate-interleaved; files of different lengths raise
    :class:`~repro.errors.InvalidReadError`.

    ``cancelled`` lets the consumer abort the stream early (sink
    failure, worker crash): the producer checks it per batch and
    closes its queue registration instead of filling the queue
    forever.  Must be called with the queue already registered for
    this producer; closes that registration even on error.
    """
    produced = 0
    try:
        blocks = iter_sequence_blocks(path, batch_size)
        mate_blocks = (
            None if mates_path is None else iter_sequence_blocks(mates_path, batch_size)
        )
        while cancelled is None or not cancelled.is_set():
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
                break
            out.put((headers, PackedReads.from_ascii(sequences, mates)))
            produced += len(headers)
    finally:
        out.close_producer()
    return produced
