"""Work units of the multi-process query engine.

A chunk is ``(headers, PackedReads)``; only its ``PackedReads`` (plus
the decision rule) travels parent -> worker, tagged in the pool with
the chunk's position in the input stream, and the parent keeps the
headers.  A :class:`ChunkResult` travels worker -> parent: the
vectorized classification arrays for one chunk plus per-stage timings.
Results arrive in *completion* order; :class:`OrderedReassembler`
restores submission order so downstream sinks observe exactly the
sequence a single-process run would produce.

Chunks deliberately carry raw arrays, not per-read record objects:
records require taxonomy name lookups, which the parent performs with
its own database so the parallel path shares every byte of the
serial path's formatting code.  A chunk's read payload is one
:class:`~repro.pipeline.packed.PackedReads`: the parent pickles 2-3
large contiguous arrays per chunk instead of N small per-read objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.core.classify import Classification

__all__ = ["ChunkResult", "OrderedReassembler"]


@dataclass
class ChunkResult:
    """One chunk's classification, produced by a worker process.

    Contains everything the parent needs to emit typed records and
    accounting identical to the single-process path: the vectorized
    :class:`~repro.core.classify.Classification`, per-read total
    lengths, and the query pipeline's per-stage seconds.  The parent
    stamps ``headers`` (its own record of the chunk's), ``chunk_id``
    (the task's tag: the chunk's position in the input stream) and
    ``worker_id`` (the pool slot that answered).
    """

    classification: Classification
    read_lengths: np.ndarray
    stage_seconds: dict[str, float] = field(default_factory=dict)
    headers: list[str] = field(default_factory=list)
    chunk_id: int = -1
    worker_id: int = -1

    @property
    def n_reads(self) -> int:
        """Reads (or read pairs) classified in this chunk."""
        return int(self.read_lengths.size)


class OrderedReassembler:
    """Restores submission order over out-of-order chunk results.

    ``push`` buffers a result; ``drain`` yields every result whose
    chunk id continues the contiguous prefix ending at the last
    drained id.  Memory is bounded by the engine's in-flight cap, as
    at most that many results can be buffered ahead of a straggler.
    """

    def __init__(self) -> None:
        self._buffer: dict[int, ChunkResult] = {}
        self._next = 0

    def push(self, result: ChunkResult) -> None:
        """Buffer one completed chunk (rejects duplicate/rewound ids)."""
        if result.chunk_id < self._next or result.chunk_id in self._buffer:
            raise ValueError(f"duplicate chunk id {result.chunk_id}")
        self._buffer[result.chunk_id] = result

    def drain(self) -> Iterator[ChunkResult]:
        """Yield buffered results that extend the in-order prefix."""
        while self._next in self._buffer:
            yield self._buffer.pop(self._next)
            self._next += 1

    @property
    def pending(self) -> int:
        """Number of buffered results waiting on an earlier chunk."""
        return len(self._buffer)

    @property
    def next_id(self) -> int:
        """The chunk id the next drained result must carry."""
        return self._next
