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
from typing import Sequence

import numpy as np

from repro.genomics.alphabet import encode_sequence
from repro.util.segmented import offsets_from_segment_ids

__all__ = ["PackedReads"]


def _concat_uint8(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate uint8 code arrays (empty-safe)."""
    if not arrays:
        return np.zeros(0, dtype=np.uint8)
    return np.concatenate([np.asarray(a, dtype=np.uint8) for a in arrays])


@dataclass
class PackedReads:
    """A batch of encoded reads in one contiguous buffer.

    See the module docstring for the layout contract.  Construct via
    :meth:`from_reads` (list-of-arrays adapter, handles paired-end
    interleaving) or :meth:`from_arrays` (pre-built arrays, e.g. a
    worker re-wrapping pickled chunk payloads); the raw constructor
    validates but does not copy.
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
        n = len(sequences)
        if mates is None:
            buffer = _concat_uint8(sequences)
            sizes = np.fromiter(
                (s.size for s in sequences), count=n, dtype=np.int64
            )
            offsets = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(sizes, out=offsets[1:])
            return cls(
                buffer=buffer,
                offsets=offsets,
                read_ids=np.arange(n, dtype=np.int64),
                n_reads=n,
            )
        if len(mates) != n:
            raise ValueError("mates list must match sequences list")
        interleaved: list[np.ndarray] = [None] * (2 * n)  # type: ignore[list-item]
        interleaved[0::2] = sequences
        interleaved[1::2] = mates
        buffer = _concat_uint8(interleaved)
        sizes = np.fromiter(
            (s.size for s in interleaved), count=2 * n, dtype=np.int64
        )
        offsets = np.zeros(2 * n + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        read_ids = np.repeat(np.arange(n, dtype=np.int64), 2)
        return cls(
            buffer=buffer,
            offsets=offsets,
            read_ids=read_ids,
            n_reads=n,
            paired=True,
        )

    @classmethod
    def from_lines(
        cls, lines: Sequence[bytes], mate_lines: Sequence[bytes] | None = None
    ) -> "PackedReads":
        """Pack a block of ASCII sequence lines, each ending in ``\\n``.

        The file-bytes adapter (what a FASTA/FASTQ parser hands over):
        one join, one encode and one cumulative sum per batch, no
        per-read array.  ``mate_lines`` are interleaved by stride
        before the join, giving the same paired layout as
        :meth:`from_reads`.
        """
        n = len(lines)
        if mate_lines is not None:
            if len(mate_lines) != n:
                raise ValueError("mates list must match sequences list")
            interleaved = [b""] * (2 * n)
            interleaved[0::2] = lines
            interleaved[1::2] = mate_lines
            lines = interleaved
        sizes = np.fromiter(map(len, lines), count=len(lines), dtype=np.int64)
        offsets = np.zeros(len(lines) + 1, dtype=np.int64)
        np.cumsum(sizes - 1, out=offsets[1:])
        read_ids = np.arange(n, dtype=np.int64)
        return cls(
            buffer=encode_sequence(b"".join(lines).replace(b"\n", b"")),
            offsets=offsets,
            read_ids=read_ids if mate_lines is None else np.repeat(read_ids, 2),
            n_reads=n,
            paired=mate_lines is not None,
        )

    @classmethod
    def from_ascii(cls, sequences: Sequence[bytes]) -> "PackedReads":
        """Pack single-end reads given as ASCII byte strings.

        The request-body adapter (a JSON payload's sequences): one
        join and one encode per batch.  Unlike :meth:`from_lines`
        every byte is a base -- nothing is stripped.
        """
        n = len(sequences)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, sequences), np.int64, n), out=offsets[1:])
        return cls(
            buffer=encode_sequence(b"".join(sequences)),
            offsets=offsets,
            read_ids=np.arange(n, dtype=np.int64),
            n_reads=n,
        )

    @classmethod
    def from_arrays(
        cls,
        buffer: np.ndarray,
        offsets: np.ndarray,
        read_ids: np.ndarray | None = None,
        *,
        n_reads: int | None = None,
        paired: bool = False,
    ) -> "PackedReads":
        """Wrap pre-built arrays (validates, never copies the buffer).

        ``read_ids`` defaults to one logical read per segment;
        ``n_reads`` defaults to the number of distinct ids implied by
        the (non-decreasing) ``read_ids``.
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        n_segments = offsets.size - 1
        if read_ids is None:
            read_ids = np.arange(n_segments, dtype=np.int64)
        else:
            read_ids = np.asarray(read_ids, dtype=np.int64)
        if n_reads is None:
            n_reads = int(read_ids[-1]) + 1 if read_ids.size else 0
        return cls(
            buffer=buffer,
            offsets=offsets,
            read_ids=read_ids,
            n_reads=n_reads,
            paired=paired,
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

    def segment(self, i: int) -> np.ndarray:
        """Zero-copy view of segment ``i``."""
        return self.buffer[self.offsets[i] : self.offsets[i + 1]]

    def segments(self) -> list[np.ndarray]:
        """Zero-copy views of every segment, in order."""
        return [self.segment(i) for i in range(self.n_segments)]

    def to_lists(self) -> tuple[list[np.ndarray], list[np.ndarray] | None]:
        """Unpack into the legacy ``(sequences, mates)`` list shape.

        The thin adapter keeping list-of-arrays call sites working:
        views, not copies.  Paired batches split back into their two
        mate lists; single-end batches return ``(segments, None)``.
        """
        segs = self.segments()
        if not self.paired:
            return segs, None
        return segs[0::2], segs[1::2]

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
