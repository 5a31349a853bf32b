"""The pre-doubling sketch kernel, kept verbatim as the oracle.

Until PR 17 the one sketch kernel packed k-mers with ``k`` shift-or
passes over ``uint64``, canonicalised through the 2-bit swap network,
computed validity with an always-on ``int64`` cumsum, gathered the
window matrix element by element through an ``int64`` index matrix and
ran a full-width dedup/cumsum/``nonzero``/scatter after the row sort.
These functions are that code, moved out of ``src/`` unchanged (only
the imports differ: the hash finalizer and the swap network are copied
here too, so the oracle shares no stage with the kernel it checks).
``tests/test_sketch_equivalence.py`` asserts the production kernel is
bit-identical to them; ``tests/reference/legacy.py`` builds its
per-read loop from them.

Nothing here imports from ``repro.hashing.sketch`` or
``repro.hashing.minhash`` except ``SKETCH_PAD`` and ``SketchParams``.
"""

from __future__ import annotations

import numpy as np

from repro.genomics.alphabet import AMBIG
from repro.hashing.minhash import SKETCH_PAD
from repro.hashing.sketch import SketchParams

__all__ = [
    "pack_kmers",
    "kmer_validity",
    "reverse_complement_2bit",
    "canonical_kmers",
    "hash_kmers_h1",
    "position_hashes",
    "window_hash_matrix",
    "sketch_windows_batch",
    "sketch_sequence",
    "sketch_reads_packed",
]

_U64 = np.uint64

_M2 = _U64(0x3333333333333333)
_M4 = _U64(0x0F0F0F0F0F0F0F0F)
_M8 = _U64(0x00FF00FF00FF00FF)
_M16 = _U64(0x0000FFFF0000FFFF)
_S2 = _U64(2)
_S4 = _U64(4)
_S8 = _U64(8)
_S16 = _U64(16)
_S32 = _U64(32)


def pack_kmers(codes: np.ndarray, k: int) -> np.ndarray:
    """Pack all k-mers into uint64 with ``k`` shift-or passes."""
    if not 1 <= k <= 32:
        raise ValueError(f"k must be in [1, 32], got {k}")
    codes = np.asarray(codes, dtype=np.uint8)
    n = codes.size
    m = n - k + 1
    if m <= 0:
        return np.zeros(0, dtype=_U64)
    safe = np.where(codes == AMBIG, np.uint8(0), codes).astype(_U64)
    out = np.zeros(m, dtype=_U64)
    for j in range(k):
        shift = _U64(2 * (k - 1 - j))
        out |= safe[j : j + m] << shift
    return out


def kmer_validity(codes: np.ndarray, k: int) -> np.ndarray:
    """True where the k-mer starting at i has no AMBIG base (cumsum form)."""
    codes = np.asarray(codes, dtype=np.uint8)
    n = codes.size
    m = n - k + 1
    if m <= 0:
        return np.zeros(0, dtype=bool)
    bad = (codes == AMBIG).astype(np.int64)
    cum = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(bad, out=cum[1:])
    return (cum[k:] - cum[:-k]) == 0


def reverse_complement_2bit(values: np.ndarray, k: int) -> np.ndarray:
    """Reverse-complement packed 2-bit k-mers through the swap network."""
    v = np.asarray(values, dtype=_U64)
    v = ((v >> _S2) & _M2) | ((v & _M2) << _S2)
    v = ((v >> _S4) & _M4) | ((v & _M4) << _S4)
    v = ((v >> _S8) & _M8) | ((v & _M8) << _S8)
    v = ((v >> _S16) & _M16) | ((v & _M16) << _S16)
    v = (v >> _S32) | (v << _S32)
    rev = v >> _U64(64 - 2 * k)
    mask = _U64(0xFFFFFFFFFFFFFFFF) if k == 32 else _U64((1 << (2 * k)) - 1)
    return (~rev) & mask


def canonical_kmers(kmers: np.ndarray, k: int) -> np.ndarray:
    """Element-wise min of each k-mer and its reverse complement."""
    kmers = np.asarray(kmers, dtype=_U64)
    return np.minimum(kmers, reverse_complement_2bit(kmers, k))


def hash_kmers_h1(kmers: np.ndarray) -> np.ndarray:
    """Feature hash h1: murmur3 fmix64, low 32 bits, as uint64."""
    h = np.asarray(kmers, dtype=_U64).copy()
    h ^= h >> _U64(33)
    h *= _U64(0xFF51AFD7ED558CCD)
    h ^= h >> _U64(33)
    h *= _U64(0xC4CEB9FE1A85EC53)
    h ^= h >> _U64(33)
    return h & _U64(0xFFFFFFFF)


def position_hashes(codes: np.ndarray, params: SketchParams) -> np.ndarray:
    """h1 of the canonical k-mer at every position; PAD where ambiguous."""
    kmers = pack_kmers(codes, params.k)
    if kmers.size == 0:
        return kmers  # empty uint64
    hashes = hash_kmers_h1(canonical_kmers(kmers, params.k))
    valid = kmer_validity(codes, params.k)
    return np.where(valid, hashes, SKETCH_PAD)


def window_hash_matrix(
    hashes: np.ndarray, starts: np.ndarray, lengths: np.ndarray, width: int
) -> np.ndarray:
    """Padded (n_windows, width) matrix from one element-wise fancy gather."""
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    cols = np.arange(width, dtype=np.int64)
    idx = starts[:, None] + cols[None, :]
    in_range = cols[None, :] < lengths[:, None]
    idx = np.where(in_range, idx, 0)
    matrix = np.where(in_range, hashes[idx], SKETCH_PAD)
    return matrix


def sketch_windows_batch(matrix: np.ndarray, s: int) -> np.ndarray:
    """Row-wise ``s`` smallest distinct values: sort, full-width dedup, scatter."""
    if s <= 0:
        raise ValueError(f"sketch size must be positive, got {s}")
    if matrix.size == 0:
        return np.full((matrix.shape[0], s), SKETCH_PAD, dtype=np.uint64)
    m = np.sort(np.asarray(matrix, dtype=np.uint64), axis=1)
    n_rows, width = m.shape
    # First occurrence of each distinct value per row.
    is_new = np.empty_like(m, dtype=bool)
    is_new[:, 0] = m[:, 0] != SKETCH_PAD
    np.not_equal(m[:, 1:], m[:, :-1], out=is_new[:, 1:])
    is_new[:, 1:] &= m[:, 1:] != SKETCH_PAD
    # Rank of each distinct value within its row (1-based among new).
    rank = np.cumsum(is_new, axis=1)
    take = is_new & (rank <= s)
    out = np.full((n_rows, s), SKETCH_PAD, dtype=np.uint64)
    rows, cols = np.nonzero(take)
    out[rows, rank[rows, cols] - 1] = m[rows, cols]
    return out


def sketch_sequence(codes: np.ndarray, params: SketchParams) -> np.ndarray:
    """Sketch every window of a reference sequence."""
    hashes = position_hashes(codes, params)
    layout = params.layout
    starts, ends = layout.window_slices(codes.size)
    if starts.size == 0:
        return np.full((0, params.sketch_size), SKETCH_PAD, dtype=np.uint64)
    lengths = ends - starts - params.k + 1
    matrix = window_hash_matrix(hashes, starts, lengths, params.kmers_per_window)
    return sketch_windows_batch(matrix, params.sketch_size)


def sketch_reads_packed(
    buffer: np.ndarray,
    offsets: np.ndarray,
    params: SketchParams,
    read_ids: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sketch a packed batch of reads: ``(sketches, window_read_ids)``."""
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
        return (
            np.full((0, params.sketch_size), SKETCH_PAD, dtype=np.uint64),
            np.zeros(0, dtype=np.int64),
        )
    hashes = position_hashes(buffer, params)
    starts = offsets[:-1][segment_ids] + starts_local
    lengths = ends_local - starts_local - params.k + 1
    matrix = window_hash_matrix(hashes, starts, lengths, params.kmers_per_window)
    sketches = sketch_windows_batch(matrix, params.sketch_size)
    return sketches, read_ids[segment_ids]
