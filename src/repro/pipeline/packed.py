"""Packed read batches: one contiguous code buffer + offset arrays.

The list-of-arrays batch representation makes every downstream stage
pay per-read interpreter overhead: sketching loops over reads in
Python and the multi-process engine pickles N small objects per
chunk.  MetaCache-GPU avoids exactly this by assembling whole read
batches into contiguous device buffers before its warp kernels
(Section 5.2); :class:`PackedReads` is the host-side analogue, and the
hot-path kernels (:func:`repro.hashing.sketch.sketch_reads_packed`,
:func:`repro.core.query.query_database`) consume it directly with
pure array ops.

Layout contract (also documented in ``docs/api/packed.md``):

- ``buffer`` -- ``uint8`` codes of every segment, concatenated in
  segment order, C-contiguous.  The *builder* of a ``PackedReads``
  owns concatenation/alignment; consumers only ever slice.
- ``offsets`` -- ``int64`` of length ``n_segments + 1``; segment
  ``i`` is ``buffer[offsets[i]:offsets[i+1]]``.  ``offsets[0] == 0``
  and ``offsets[-1] == buffer.size``.
- ``read_ids`` -- ``int64`` per segment, non-decreasing, mapping each
  segment to its logical read.  Paired-end mates are *adjacent*
  segments sharing a read id (m1[0], m2[0], m1[1], ...), mirroring
  how MetaCache queries both mates into one result (Fig. 1 step 2).
- ``n_reads`` -- number of logical reads (ids live in
  ``[0, n_reads)``).

A packed batch is logically immutable: kernels cache nothing inside
it, but they do take zero-copy views of ``buffer``, so mutating a
batch after handing it to the pipeline is undefined behavior.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.genomics.alphabet import encode_sequence
from repro.util.segmented import offsets_from_segment_ids

__all__ = ["PackedReads"]


def _interleaved(
    sequences: Sequence, mates: Sequence | None
) -> tuple[Sequence, np.ndarray]:
    """Segments and read ids of reads with optional mates.

    With ``mates`` the two lists are interleaved by stride, mate-first
    (m1[0], m2[0], m1[1], ...), and both segments of pair ``i`` carry
    read id ``i``.
    """
    read_ids = np.arange(len(sequences), dtype=np.int64)
    if mates is None:
        return sequences, read_ids
    if len(mates) != len(sequences):
        raise ValueError("mates list must match sequences list")
    segments = [None] * (2 * len(sequences))
    segments[0::2] = sequences
    segments[1::2] = mates
    return segments, np.repeat(read_ids, 2)


def _offsets(sizes: Iterable[int], count: int) -> np.ndarray:
    """Running sums of ``count`` segment sizes, from 0."""
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.fromiter(sizes, np.int64, count), out=offsets[1:])
    return offsets


def _concat_uint8(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate uint8 code arrays (empty-safe)."""
    if not arrays:
        return np.zeros(0, dtype=np.uint8)
    return np.concatenate([np.asarray(a, dtype=np.uint8) for a in arrays])


@dataclass
class PackedReads:
    """A batch of encoded reads in one contiguous buffer.

    See the module docstring for the layout contract.  Construct via
    :meth:`from_ascii` (ASCII reads, as parsed from files and request
    bodies) or :meth:`from_reads` (list-of-arrays adapter; both handle
    paired-end interleaving); the raw constructor takes pre-built
    arrays, which it validates but does not copy.
    """

    buffer: np.ndarray
    offsets: np.ndarray
    read_ids: np.ndarray
    n_reads: int
    paired: bool = False
    _read_lengths: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.buffer = np.ascontiguousarray(self.buffer, dtype=np.uint8)
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        self.read_ids = np.asarray(self.read_ids, dtype=np.int64)
        if self.offsets.ndim != 1 or self.offsets.size < 1:
            raise ValueError("offsets must be 1-D with at least one entry")
        if self.offsets[0] != 0 or self.offsets[-1] != self.buffer.size:
            raise ValueError(
                f"offsets must span the buffer: got [{self.offsets[0]}, "
                f"{self.offsets[-1]}] over {self.buffer.size} bytes"
            )
        if (np.diff(self.offsets) < 0).any():
            raise ValueError("offsets must be non-decreasing")
        if self.read_ids.size != self.offsets.size - 1:
            raise ValueError(
                f"{self.read_ids.size} read ids for "
                f"{self.offsets.size - 1} segments"
            )
        if self.read_ids.size:
            if (np.diff(self.read_ids) < 0).any():
                raise ValueError("read_ids must be non-decreasing")
            if self.read_ids[0] < 0 or self.read_ids[-1] >= self.n_reads:
                raise ValueError(
                    f"read_ids must lie in [0, {self.n_reads})"
                )
        if self.paired and self.read_ids.size != 2 * self.n_reads:
            raise ValueError(
                "paired batches need exactly two segments per read"
            )

    # ------------------------------------------------------------ builders

    @classmethod
    def from_reads(
        cls,
        sequences: Sequence[np.ndarray],
        mates: Sequence[np.ndarray] | None = None,
    ) -> "PackedReads":
        """Pack a list of encoded reads (the list-of-arrays adapter).

        With ``mates`` the two lists are interleaved mate-first
        (m1[0], m2[0], m1[1], ...) and both segments of pair ``i``
        carry read id ``i`` -- the packed replacement for the old
        per-element ``_interleave_pairs`` loop, computed with array
        ops over the segment table instead.
        """
        segments, read_ids = _interleaved(sequences, mates)
        return cls(
            buffer=_concat_uint8(segments),
            offsets=_offsets((s.size for s in segments), len(segments)),
            read_ids=read_ids,
            n_reads=len(sequences),
            paired=mates is not None,
        )

    @classmethod
    def from_ascii(
        cls, sequences: Sequence[bytes], mates: Sequence[bytes] | None = None
    ) -> "PackedReads":
        """Pack reads given as ASCII byte strings, every byte a base.

        The one file-bytes adapter: parsed FASTA/FASTQ blocks, request
        bodies, JSON reads and reference blocks all arrive in this
        shape.  One join, one encode and one cumulative sum per batch,
        no per-read array.  ``mates`` are interleaved by stride before
        the join, giving the same paired layout as :meth:`from_reads`.
        """
        segments, read_ids = _interleaved(sequences, mates)
        return cls(
            buffer=encode_sequence(b"".join(segments)),
            offsets=_offsets(map(len, segments), len(segments)),
            read_ids=read_ids,
            n_reads=len(sequences),
            paired=mates is not None,
        )

    @classmethod
    def concatenate(cls, parts: Sequence["PackedReads"]) -> "PackedReads":
        """The batches of ``parts`` (at least one) as one batch, in order.

        The inverse of :meth:`slice_reads`, used to coalesce requests:
        one copy of the buffers, segment tables shifted by array ops.
        A single part is returned as it is.  Parts must agree on
        ``paired``.
        """
        if len(parts) == 1:
            return parts[0]
        paired = parts[0].paired
        if any(part.paired != paired for part in parts):
            raise ValueError("cannot concatenate paired with single-end batches")
        bases = np.cumsum([0] + [part.buffer.size for part in parts])
        reads = np.cumsum([0] + [part.n_reads for part in parts])
        return cls(
            buffer=np.concatenate([part.buffer for part in parts]),
            offsets=np.concatenate(
                [parts[0].offsets[:1]]
                + [part.offsets[1:] + base for part, base in zip(parts, bases)]
            ),
            read_ids=np.concatenate(
                [part.read_ids + first for part, first in zip(parts, reads)]
            ),
            n_reads=int(reads[-1]),
            paired=paired,
        )

    @classmethod
    def empty(cls, *, paired: bool = False) -> "PackedReads":
        """The zero-read batch."""
        return cls(
            buffer=np.zeros(0, dtype=np.uint8),
            offsets=np.zeros(1, dtype=np.int64),
            read_ids=np.zeros(0, dtype=np.int64),
            n_reads=0,
            paired=paired,
        )

    # ------------------------------------------------------------ geometry

    def __len__(self) -> int:
        """Number of logical reads (pairs count once)."""
        return self.n_reads

    @property
    def n_segments(self) -> int:
        """Number of stored segments (2 per read when paired)."""
        return self.offsets.size - 1

    @property
    def total_bases(self) -> int:
        """Total bases across every segment."""
        return int(self.buffer.size)

    @property
    def segment_lengths(self) -> np.ndarray:
        """Per-segment lengths, ``np.diff(offsets)`` (int64)."""
        return np.diff(self.offsets)

    @property
    def read_lengths(self) -> np.ndarray:
        """Total bases per *logical* read (both mates when paired).

        A read's segments are contiguous, so its length is the
        difference of ``offsets`` at its first segment and at the next
        read's: an exact int64 segment sum, no scatter-add.
        """
        if self._read_lengths is None:
            firsts = offsets_from_segment_ids(self.read_ids, self.n_reads)
            self._read_lengths = np.diff(self.offsets.take(firsts))
        return self._read_lengths

    # ------------------------------------------------------------ adapters

    def slice_reads(self, start: int, stop: int) -> "PackedReads":
        """A packed sub-batch of logical reads ``[start, stop)``.

        Array-only: segment membership comes from a ``searchsorted``
        over the (non-decreasing) read ids; the buffer slice is a
        view.  Used to split one packed batch into engine chunks
        without round-tripping through per-read lists.  A range that
        covers every read returns the batch itself.
        """
        start = max(0, start)
        stop = min(self.n_reads, stop)
        if start >= stop:
            return PackedReads.empty(paired=self.paired)
        if stop - start == self.n_reads:
            return self
        lo = int(np.searchsorted(self.read_ids, start, side="left"))
        hi = int(np.searchsorted(self.read_ids, stop - 1, side="right"))
        base = self.offsets[lo]
        return PackedReads(
            buffer=self.buffer[base : self.offsets[hi]],
            offsets=self.offsets[lo : hi + 1] - base,
            read_ids=self.read_ids[lo:hi] - start,
            n_reads=stop - start,
            paired=self.paired,
        )
