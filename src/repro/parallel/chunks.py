"""Work units of the multi-process query engine.

A :class:`ReadChunk` is what travels parent -> worker: a slice of the
input read stream with its position (``chunk_id``) in that stream.  A
:class:`ChunkResult` travels worker -> parent: the vectorized
classification arrays for one chunk plus per-stage timings.  Results
arrive in *completion* order; :class:`OrderedReassembler` restores
submission order so downstream sinks observe exactly the sequence a
single-process run would produce.

Chunks deliberately carry raw arrays, not per-read record objects:
records require taxonomy name lookups, which the parent performs with
its own database so the parallel path shares every byte of the
serial path's formatting code.  Since the packed-batch refactor a
chunk's read payload is one :class:`~repro.pipeline.packed.PackedReads`
-- the parent pickles 2-3 large contiguous arrays per chunk instead of
N small per-read objects, which is where most of the old IPC
serialization time went.  The ``sequences``/``mates`` list properties
remain as zero-copy adapter views for legacy call sites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.core.classify import Classification
from repro.pipeline.packed import PackedReads

__all__ = ["ReadChunk", "ChunkResult", "OrderedReassembler"]


class ReadChunk:
    """One batch of encoded reads scheduled onto a worker.

    ``chunk_id`` is the zero-based position of this chunk in the input
    stream (the reassembly key); ``headers`` has one entry per logical
    read.  The read payload is stored packed (``self.packed``); the
    constructor accepts either a pre-built :class:`PackedReads` or the
    legacy ``sequences``/``mates`` lists, which it packs on entry.
    ``sequences``/``mates`` stay available as view properties.
    """

    __slots__ = ("chunk_id", "headers", "packed")

    def __init__(
        self,
        chunk_id: int,
        headers: list[str],
        sequences: Sequence[np.ndarray] | None = None,
        mates: Sequence[np.ndarray] | None = None,
        packed: PackedReads | None = None,
    ) -> None:
        if packed is not None:
            if sequences is not None or mates is not None:
                raise ValueError(
                    f"chunk {chunk_id}: pass either packed or "
                    "sequences/mates, not both"
                )
        else:
            if sequences is None:
                raise ValueError(
                    f"chunk {chunk_id}: needs sequences or packed"
                )
            if len(headers) != len(sequences):
                raise ValueError(
                    f"chunk {chunk_id}: {len(headers)} headers for "
                    f"{len(sequences)} sequences"
                )
            if mates is not None and len(mates) != len(sequences):
                raise ValueError(
                    f"chunk {chunk_id}: {len(mates)} mates for "
                    f"{len(sequences)} sequences"
                )
            packed = PackedReads.from_reads(sequences, mates)
        if len(headers) != packed.n_reads:
            raise ValueError(
                f"chunk {chunk_id}: {len(headers)} headers for "
                f"{packed.n_reads} reads"
            )
        self.chunk_id = chunk_id
        self.headers = headers
        self.packed = packed

    @property
    def sequences(self) -> list[np.ndarray]:
        """Legacy list view of the reads (first mates when paired)."""
        return self.packed.to_lists()[0]

    @property
    def mates(self) -> list[np.ndarray] | None:
        """Legacy list view of the second mates (``None`` single-end)."""
        return self.packed.to_lists()[1]

    def __len__(self) -> int:
        return self.packed.n_reads

    def __getstate__(self):
        return (self.chunk_id, self.headers, self.packed)

    def __setstate__(self, state) -> None:
        self.chunk_id, self.headers, self.packed = state

    def __repr__(self) -> str:
        kind = "paired" if self.packed.paired else "single"
        return (
            f"ReadChunk(id={self.chunk_id}, {self.packed.n_reads} {kind} "
            f"reads, {self.packed.total_bases} bases)"
        )


@dataclass
class ChunkResult:
    """One chunk's classification, produced by a worker process.

    Contains everything the parent needs to emit typed records and
    accounting identical to the single-process path: the vectorized
    :class:`~repro.core.classify.Classification`, per-read total
    lengths, and the query pipeline's per-stage seconds.
    ``worker_id`` (the pool slot that answered, stamped by the parent),
    ``compute_seconds`` (wall inside the worker) and
    ``compute_cpu_seconds`` (CPU time, immune to core timesharing)
    feed the scaling benchmark's load-balance model.
    """

    chunk_id: int
    headers: list[str]
    classification: Classification
    read_lengths: np.ndarray
    stage_seconds: dict[str, float] = field(default_factory=dict)
    total_seconds: float = 0.0
    worker_id: int = -1
    compute_seconds: float = 0.0
    compute_cpu_seconds: float = 0.0

    @property
    def n_reads(self) -> int:
        """Reads (or read pairs) classified in this chunk."""
        return len(self.headers)


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
