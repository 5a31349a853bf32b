"""Sequence batches flowing through the pipeline queues."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.pipeline.packed import PackedReads

__all__ = ["SequenceBatch"]


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
