"""Producer threads: parse sequence files into batches.

Section 4.1: "Multiple producer threads parse the genome files to
split the data into header and sequence strings which are then pushed
into the queue."  The producers here do exactly that (plus encoding,
which in the GPU version happens device-side but costs the same
either way in the simulation).  :func:`fasta_producer` feeds the
build side in :class:`SequenceBatch` es, :func:`read_file_producer`
the query side in packed batches.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import InvalidReadError
from repro.genomics.alphabet import encode_sequence
from repro.genomics.fasta import read_fasta
from repro.genomics.io import iter_sequence_blocks
from repro.pipeline.packed import PackedReads
from repro.pipeline.queues import ClosableQueue

__all__ = ["SequenceBatch", "fasta_producer", "read_file_producer"]


@dataclass
class SequenceBatch:
    """A batch of parsed sequences.

    ``headers`` carry the FASTA/FASTQ identifiers (the build phase
    resolves them to taxa); ``sequences`` are encoded uint8 code
    arrays; ``ids`` are global sequential indices assigned by the
    producer so downstream results can be reassembled in input order
    regardless of consumer scheduling.

    Storage stays list-of-arrays while the batch is being appended to
    (parsers grow it one record at a time); :meth:`packed` produces --
    and caches -- the contiguous :class:`PackedReads` form the hot-path
    kernels consume.  Appending after packing invalidates the cache.
    """

    headers: list[str] = field(default_factory=list)
    sequences: list[np.ndarray] = field(default_factory=list)
    ids: list[int] = field(default_factory=list)
    _packed: PackedReads | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.sequences)

    @property
    def total_bases(self) -> int:
        return int(sum(s.size for s in self.sequences))

    def append(self, header: str, codes: np.ndarray, seq_id: int) -> None:
        self.headers.append(header)
        self.sequences.append(codes)
        self.ids.append(seq_id)
        self._packed = None

    def packed(self) -> PackedReads:
        """The batch's contiguous packed form (built once, cached).

        Producers call this on their own thread right before enqueuing
        a finished batch, so consumers get the packed layout for free;
        any consumer can also call it lazily.
        """
        if self._packed is None or self._packed.n_reads != len(self.sequences):
            self._packed = PackedReads.from_reads(self.sequences)
        return self._packed


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
