"""High-level sketching: sequence/read -> per-window minhash sketches.

Composes the k-mer, windowing and minhash layers into the shapes the
pipeline needs:

- :func:`sketch_sequence` -- all windows of one reference sequence
  (build phase, Fig. 1 step 1);
- :func:`sketch_reads_packed` -- all windows of a *packed* batch (one
  contiguous code buffer + segment offsets) mapped to read ids: the
  query-phase hot path, pure array ops with no per-read Python loop,
  the host analogue of the GPU's batched warp kernel (Section 5.2).
  Reads shorter than the window size yield a single window; longer
  reads split into several windows, as Section 6.2 describes for
  MiSeq.
- :func:`sketch_packed_segments` -- the same kernel shaped for the
  build phase's parallel sketch pool: several reference sequences per
  job, per-segment window counts returned alongside.
- :func:`sketch_reads` -- thin list-of-arrays adapter over the packed
  kernel (packs, then calls :func:`sketch_reads_packed`).

The pre-packing per-read implementation these kernels replaced lives
on as the test oracle ``tests/reference/legacy.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.genomics.kmers import canonical_kmers, kmer_validity, pack_kmers
from repro.genomics.windows import WindowLayout
from repro.hashing.hashes import hash_kmers_h1
from repro.hashing.minhash import SKETCH_PAD, sketch_windows_batch, window_hash_matrix

__all__ = [
    "SketchParams",
    "sketch_sequence",
    "sketch_reads",
    "sketch_reads_packed",
    "sketch_packed_segments",
    "position_hashes",
]


@dataclass(frozen=True)
class SketchParams:
    """Sketching configuration: k-mer length, sketch size, window size.

    Defaults are the paper's: k=16, s=16, w=127 (stride 112).
    """

    k: int = 16
    sketch_size: int = 16
    window_size: int = 127

    def __post_init__(self) -> None:
        if not 1 <= self.k <= 32:
            raise ValueError(f"k must be in [1,32], got {self.k}")
        if self.sketch_size < 1:
            raise ValueError("sketch_size must be >= 1")
        if self.window_size < self.k:
            raise ValueError("window_size must be >= k")

    @property
    def layout(self) -> WindowLayout:
        return WindowLayout(k=self.k, window_size=self.window_size)

    @property
    def kmers_per_window(self) -> int:
        return self.window_size - self.k + 1


def position_hashes(codes: np.ndarray, params: SketchParams) -> np.ndarray:
    """h1 of the canonical k-mer at every sequence position.

    Positions whose k-mer covers an ambiguous base get ``SKETCH_PAD``
    so they are transparently ignored by the sketch selection.
    Length is ``len(codes) - k + 1`` (empty for short sequences).
    """
    kmers = pack_kmers(codes, params.k)
    if kmers.size == 0:
        return kmers  # empty uint64
    hashes = hash_kmers_h1(canonical_kmers(kmers, params.k))
    valid = kmer_validity(codes, params.k)
    return np.where(valid, hashes, SKETCH_PAD)


def sketch_sequence(codes: np.ndarray, params: SketchParams) -> np.ndarray:
    """Sketch every window of a reference sequence.

    Returns an ``(n_windows, s)`` uint64 matrix, padded with
    ``SKETCH_PAD``.  Row ``i`` is the sketch of window ``i``.
    """
    hashes = position_hashes(codes, params)
    layout = params.layout
    starts, ends = layout.window_slices(codes.size)
    if starts.size == 0:
        return np.full((0, params.sketch_size), SKETCH_PAD, dtype=np.uint64)
    lengths = ends - starts - params.k + 1
    matrix = window_hash_matrix(hashes, starts, lengths, params.kmers_per_window)
    return sketch_windows_batch(matrix, params.sketch_size)


def _empty_sketch_result(params: SketchParams) -> tuple[np.ndarray, np.ndarray]:
    """The zero-window result shared by every batch sketcher."""
    return (
        np.full((0, params.sketch_size), SKETCH_PAD, dtype=np.uint64),
        np.zeros(0, dtype=np.int64),
    )


def sketch_reads_packed(
    buffer: np.ndarray,
    offsets: np.ndarray,
    params: SketchParams,
    read_ids: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sketch a packed batch of reads: the contiguous hot-path kernel.

    Parameters
    ----------
    buffer / offsets:
        the :class:`~repro.pipeline.packed.PackedReads` layout: one
        contiguous uint8 code buffer; segment ``i`` is
        ``buffer[offsets[i]:offsets[i+1]]``.  For paired-end data the
        two mates are adjacent segments sharing a ``read_ids`` value,
        mirroring how MetaCache queries both mates into one result
        (Fig. 1 step 2).
    read_ids:
        id per segment (defaults to 0..n_segments-1).

    Returns
    -------
    (sketches, window_read_ids):
        sketches is (total_windows, s) uint64; window_read_ids maps
        each window row to its read id.  Segments shorter than ``k``
        contribute no windows.

    Bit-identical to sketching each read on its own (the
    ``tests/reference`` oracle): position hashes are computed once
    over the whole buffer, and every window gather stays inside its
    segment (a window's last k-mer starts at ``offsets[i+1] - k`` at
    the latest), so the k-mers that straddle segment boundaries are
    computed but never referenced.
    """
    buffer = np.asarray(buffer, dtype=np.uint8)
    offsets = np.asarray(offsets, dtype=np.int64)
    n_segments = offsets.size - 1
    if read_ids is None:
        read_ids = np.arange(n_segments, dtype=np.int64)
    else:
        read_ids = np.asarray(read_ids, dtype=np.int64)
        if read_ids.size != n_segments:
            raise ValueError("read_ids length must match segment count")
    _, segment_ids, starts_local, ends_local = (
        params.layout.packed_window_slices(np.diff(offsets))
    )
    if segment_ids.size == 0:
        return _empty_sketch_result(params)
    hashes = position_hashes(buffer, params)
    starts = offsets[:-1][segment_ids] + starts_local
    lengths = ends_local - starts_local - params.k + 1
    matrix = window_hash_matrix(hashes, starts, lengths, params.kmers_per_window)
    sketches = sketch_windows_batch(matrix, params.sketch_size)
    return sketches, read_ids[segment_ids]


def sketch_packed_segments(
    buffer: np.ndarray, offsets: np.ndarray, params: SketchParams
) -> tuple[np.ndarray, np.ndarray]:
    """Sketch several packed reference sequences in one kernel call.

    The build-phase shape of the packed kernel: returns
    ``(sketches, window_counts)`` where ``window_counts[i]`` is the
    number of sketch rows produced by segment ``i``, so a caller can
    split the concatenated matrix back per sequence.  Row blocks are
    bit-identical to running :func:`sketch_sequence` on each segment
    separately, which is what keeps parallel packed builds
    byte-identical to serial ones.
    """
    buffer = np.asarray(buffer, dtype=np.uint8)
    offsets = np.asarray(offsets, dtype=np.int64)
    counts, segment_ids, starts_local, ends_local = (
        params.layout.packed_window_slices(np.diff(offsets))
    )
    if segment_ids.size == 0:
        return (
            np.full((0, params.sketch_size), SKETCH_PAD, dtype=np.uint64),
            counts,
        )
    hashes = position_hashes(buffer, params)
    starts = offsets[:-1][segment_ids] + starts_local
    lengths = ends_local - starts_local - params.k + 1
    matrix = window_hash_matrix(hashes, starts, lengths, params.kmers_per_window)
    return sketch_windows_batch(matrix, params.sketch_size), counts


def sketch_reads(
    sequences: list[np.ndarray],
    params: SketchParams,
    read_ids: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sketch a batch of reads given as a list of arrays.

    The thin adapter keeping the legacy list-of-arrays call sites
    working: concatenates the reads into the packed layout and calls
    :func:`sketch_reads_packed`.  Same result contract; hot paths
    that already hold a packed batch should call the packed kernel
    directly and skip the concatenation.
    """
    n = len(sequences)
    if n == 0:
        return _empty_sketch_result(params)
    buffer = np.concatenate([np.asarray(s, dtype=np.uint8) for s in sequences])
    sizes = np.fromiter((s.size for s in sequences), count=n, dtype=np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return sketch_reads_packed(buffer, offsets, params, read_ids)
