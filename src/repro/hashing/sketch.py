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
  sketch pool (:class:`repro.parallel.ParallelSketcher`): several
  reference sequences per job, per-segment window counts returned
  alongside.
- :func:`sketch_reads` -- thin list-of-arrays adapter over the packed
  kernel (packs, then calls :func:`sketch_reads_packed`).

All of them are one kernel, :func:`_sketch_segments`: canonical k-mers
of both strands packed by doubling (:mod:`repro.genomics.kmers`),
hashed in place, gathered into a window matrix as contiguous rows,
row-sorted, and read off the sorted prefix
(:mod:`repro.hashing.minhash`).  The ``k``-pass, element-gather,
full-width-dedup implementation it replaced lives on as the test
oracle ``tests/reference/sketch_windowed.py`` (run per read by
``tests/reference/legacy.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.genomics.kmers import pack_canonical_kmers
from repro.genomics.windows import WindowLayout
from repro.hashing.hashes import hash_kmers_h1
from repro.hashing.minhash import SKETCH_PAD, gather_window_rows, select_sorted_rows

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
            raise ConfigError(f"k must be in [1,32], got {self.k}")
        if self.sketch_size < 1:
            raise ConfigError("sketch_size must be >= 1")
        if self.window_size < self.k:
            raise ConfigError("window_size must be >= k")

    @property
    def layout(self) -> WindowLayout:
        return WindowLayout(k=self.k, window_size=self.window_size)

    @property
    def kmers_per_window(self) -> int:
        return self.window_size - self.k + 1


def _padded_position_hashes(codes: np.ndarray, k: int, pad: int) -> np.ndarray:
    """Position hashes followed by ``pad`` entries of ``SKETCH_PAD``."""
    kmers, invalid = pack_canonical_kmers(codes, k)
    hashes = np.empty(kmers.size + pad, dtype=np.uint64)
    hash_kmers_h1(kmers, out=hashes[: kmers.size])
    hashes[kmers.size :] = SKETCH_PAD
    if invalid is not None:
        hashes[: kmers.size][invalid] = SKETCH_PAD
    return hashes


def position_hashes(codes: np.ndarray, params: SketchParams) -> np.ndarray:
    """h1 of the canonical k-mer at every sequence position.

    Positions whose k-mer covers an ambiguous base get ``SKETCH_PAD``
    so they are transparently ignored by the sketch selection.
    Length is ``len(codes) - k + 1`` (empty for short sequences).
    """
    return _padded_position_hashes(codes, params.k, 0)


def _sketch_segments(
    buffer: np.ndarray, offsets: np.ndarray, params: SketchParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one kernel: every window of every segment of a packed buffer.

    Returns ``(sketches, window_counts, window_segment_ids)``.  Position
    hashes are computed once over the whole buffer; every window stays
    inside its segment (its last k-mer starts at ``offsets[i+1] - k`` at
    the latest), so the k-mers that straddle segment boundaries are
    computed but never selected.
    """
    buffer = np.asarray(buffer, dtype=np.uint8)
    offsets = np.asarray(offsets, dtype=np.int64)
    counts, segment_ids, starts_local, ends_local = (
        params.layout.packed_window_slices(np.diff(offsets))
    )
    if segment_ids.size == 0:
        empty = np.full((0, params.sketch_size), SKETCH_PAD, dtype=np.uint64)
        return empty, counts, segment_ids
    starts = offsets[:-1][segment_ids] + starts_local
    lengths = ends_local - starts_local - params.k + 1
    # the longest window present (at most kmers_per_window): for reads
    # shorter than the window size the matrix is that much narrower
    width = int(lengths.max())
    hashes = _padded_position_hashes(buffer, params.k, width - 1)
    matrix = gather_window_rows(hashes, starts, lengths, width)
    matrix.sort(axis=1)
    return select_sorted_rows(matrix, params.sketch_size), counts, segment_ids


def sketch_sequence(codes: np.ndarray, params: SketchParams) -> np.ndarray:
    """Sketch every window of a reference sequence.

    Returns an ``(n_windows, s)`` uint64 matrix, padded with
    ``SKETCH_PAD``.  Row ``i`` is the sketch of window ``i``.
    """
    codes = np.asarray(codes, dtype=np.uint8)
    return _sketch_segments(codes, np.array([0, codes.size]), params)[0]


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
    ``tests/reference`` oracle).
    """
    if read_ids is not None:
        read_ids = np.asarray(read_ids, dtype=np.int64)
        if read_ids.size != len(offsets) - 1:
            raise ValueError("read_ids length must match segment count")
    sketches, _, segment_ids = _sketch_segments(buffer, offsets, params)
    return sketches, segment_ids if read_ids is None else read_ids[segment_ids]


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
    sketches, counts, _ = _sketch_segments(buffer, offsets, params)
    return sketches, counts


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
    # np.concatenate rejects an empty list; the empty buffer stands in
    buffer = np.concatenate(
        [np.zeros(0, dtype=np.uint8), *(np.asarray(s, dtype=np.uint8) for s in sequences)]
    )
    sizes = np.fromiter((s.size for s in sequences), count=n, dtype=np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return sketch_reads_packed(buffer, offsets, params, read_ids)
