"""Producer threads: parse sequence files into batches.

Section 4.1: "Multiple producer threads parse the genome files to
split the data into header and sequence strings which are then pushed
into the queue."  The producers here do exactly that (plus encoding,
which in the GPU version happens device-side but costs the same
either way in the simulation).  :func:`fasta_producer` feeds the
build side, :func:`read_file_producer` the query side.
"""

from __future__ import annotations

import itertools
import os
import threading
from typing import Sequence

from repro.errors import InvalidReadError
from repro.genomics.alphabet import encode_sequence
from repro.genomics.fasta import read_fasta
from repro.genomics.io import iter_sequence_records
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
            for record in read_fasta(path):
                batch.append(
                    record.header,
                    encode_sequence(record.sequence),
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
    :func:`repro.genomics.io.iter_sequence_records`.  Each queue item
    is ``(headers, PackedReads)`` for up to ``batch_size`` reads --
    parsed, encoded *and* packed here, so the consumer (the serial
    query loop or the worker pool's chunk pickling) receives the
    contiguous form without paying for it.  With ``mates_path`` the
    two files are read in lock step (pairing is positional, headers
    come from ``path``) and packed mate-interleaved; files of
    different lengths raise :class:`~repro.errors.InvalidReadError`.

    ``cancelled`` lets the consumer abort the stream early (sink
    failure, worker crash): the producer checks it per batch and
    closes its queue registration instead of filling the queue
    forever.  Must be called with the queue already registered for
    this producer; closes that registration even on error.
    """
    produced = 0
    try:
        reads = iter_sequence_records(path)
        mates = None if mates_path is None else iter_sequence_records(mates_path)
        while cancelled is None or not cancelled.is_set():
            batch = list(itertools.islice(reads, batch_size))
            mate_codes = None
            if mates is not None:
                # past the last read, one more mate is asked for, so a
                # longer mates file is caught too
                mate_batch = list(itertools.islice(mates, len(batch) or 1))
                if len(mate_batch) != len(batch):
                    raise InvalidReadError(
                        f"paired files differ in length: {path} vs {mates_path}"
                    )
                mate_codes = [encode_sequence(seq) for _, seq in mate_batch]
            if not batch:
                break
            packed = PackedReads.from_reads(
                [encode_sequence(seq) for _, seq in batch], mate_codes
            )
            out.put(([header for header, _ in batch], packed))
            produced += len(batch)
    finally:
        out.close_producer()
    return produced
