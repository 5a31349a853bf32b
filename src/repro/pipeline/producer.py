"""Producer threads: parse sequence files into batches.

Section 4.1: "Multiple producer threads parse the genome files to
split the data into header and sequence strings which are then pushed
into the queue."  The producers here do exactly that (plus encoding,
which in the GPU version happens device-side but costs the same
either way in the simulation).  :func:`fasta_producer` feeds the
build side, :func:`read_file_producer` the query side.
"""

from __future__ import annotations

import os
import threading
from typing import Sequence

from repro.errors import InvalidReadError
from repro.genomics.alphabet import encode_sequence
from repro.genomics.fasta import read_fasta
from repro.genomics.io import iter_sequence_blocks
from repro.pipeline.batch import SequenceBatch
from repro.pipeline.packed import PackedReads
from repro.pipeline.queues import ClosableQueue

__all__ = ["fasta_producer", "read_file_producer"]


def fasta_producer(
    paths: Sequence[str | os.PathLike],
    out: ClosableQueue,
    batch_size: int = 64,
    id_offset: int = 0,
) -> int:
    """Parse FASTA files into the queue; returns sequences produced.

    Must be called with the queue already registered for this
    producer; closes its registration when done (even on error).
    ``id_offset`` shifts the assigned sequence ids -- concurrent
    producers use disjoint offset ranges so downstream order is
    deterministic.
    """
    produced = 0
    try:
        for path in paths:
            batch = SequenceBatch()
            references = read_fasta(path)
            for reference in references:
                batch.append(
                    reference.header,
                    encode_sequence(reference.sequence),
                    id_offset + produced,
                )
                produced += 1
                if len(batch) >= batch_size:
                    out.put(batch)
                    batch = SequenceBatch()
            if len(batch):
                out.put(batch)
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
    the file's sequence lines joined, encoded *and* packed here a
    batch at a time, so the consumer (the serial query loop or the
    worker pool's chunk pickling) receives the contiguous form without
    paying for it.  With ``mates_path`` the two files are read in lock
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
            headers, lines = next(blocks, ([], []))
            mate_lines = None
            if mate_blocks is not None:
                # past the last read, one more block of mates is asked
                # for, so a longer mates file is caught too
                _, mate_lines = next(mate_blocks, ([], []))
                if len(mate_lines) != len(lines):
                    raise InvalidReadError(
                        f"paired files differ in length: {path} vs {mates_path}"
                    )
            if not headers:
                break
            out.put((headers, PackedReads.from_lines(lines, mate_lines)))
            produced += len(headers)
    finally:
        out.close_producer()
    return produced
