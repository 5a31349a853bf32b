"""Minhash sketching: the s smallest *distinct* feature values per window.

Two implementations with identical semantics:

- :func:`sketch_window` -- scalar reference, one window at a time.
  Mirrors the CPU code path and anchors the property tests.
- :func:`sketch_windows_batch` -- the batched analogue of the GPU
  kernel (Section 5.3): all windows of a batch are laid out as rows
  of a matrix (:func:`window_hash_matrix`), rows are sorted (the
  bitonic-sort step) and the first ``s`` distinct values selected --
  all with row-parallel vector ops, no Python loop over windows.

Selection reads the sorted prefix: a sorted row whose first ``s``
entries are pairwise distinct (``SKETCH_PAD`` only as a suffix) *is*
its ``s`` smallest distinct values, so only rows with an equal
non-PAD neighbour inside that prefix go through the general
dedup/rank/scatter (:func:`_distinct_prefix`).

Padding uses ``SKETCH_PAD`` (all-ones uint64), which is larger than
any 32-bit feature so it sorts to the end of each row.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "SKETCH_PAD",
    "sketch_window",
    "window_hash_matrix",
    "gather_window_rows",
    "sketch_windows_batch",
    "select_sorted_rows",
]

SKETCH_PAD = np.uint64(0xFFFFFFFFFFFFFFFF)


def sketch_window(hashes: np.ndarray, s: int) -> np.ndarray:
    """The ``s`` smallest distinct hash values of one window.

    Returns a sorted array of length <= s (shorter when the window
    holds fewer distinct values).
    """
    if s <= 0:
        raise ValueError(f"sketch size must be positive, got {s}")
    h = np.asarray(hashes, dtype=np.uint64)
    return np.unique(h)[:s]


def window_hash_matrix(
    hashes: np.ndarray, starts: np.ndarray, lengths: np.ndarray, width: int
) -> np.ndarray:
    """Gather per-window hash slices into a padded (n_windows, width) matrix.

    ``hashes`` holds the k-mer hash of every sequence position (invalid
    positions must already be ``SKETCH_PAD``); window ``i`` covers
    ``hashes[starts[i] : starts[i] + lengths[i]]``.
    """
    hashes = np.asarray(hashes, dtype=np.uint64)
    padded = np.full(hashes.size + width - 1, SKETCH_PAD, dtype=np.uint64)
    padded[: hashes.size] = hashes
    return gather_window_rows(
        padded, np.asarray(starts, dtype=np.int64), np.asarray(lengths, dtype=np.int64), width
    )


def gather_window_rows(
    padded: np.ndarray, starts: np.ndarray, lengths: np.ndarray, width: int
) -> np.ndarray:
    """:func:`window_hash_matrix` over hashes that already carry their padding.

    ``padded`` must extend ``width - 1`` ``SKETCH_PAD`` entries past the
    last position hash, so every row ``padded[start : start + width]``
    exists: the matrix is then one contiguous row gather, and only rows
    shorter than ``width`` need their tail (which ran into the next
    window's k-mers) stamped with ``SKETCH_PAD``.
    """
    matrix = sliding_window_view(padded, width)[starts]
    short = np.flatnonzero(lengths < width)
    if short.size:
        tails = np.arange(width) >= lengths[short, None]
        matrix[short] = np.where(tails, SKETCH_PAD, matrix[short])
    return matrix


def sketch_windows_batch(matrix: np.ndarray, s: int) -> np.ndarray:
    """Row-wise minhash: ``s`` smallest distinct values per row.

    Returns an (n_rows, s) uint64 matrix padded with ``SKETCH_PAD``
    where a row has fewer than ``s`` distinct values.  This is the
    vectorized counterpart of the warp kernel's bitonic-sort +
    dedup + select pipeline.
    """
    return select_sorted_rows(np.sort(np.asarray(matrix, dtype=np.uint64), axis=1), s)


def select_sorted_rows(m: np.ndarray, s: int) -> np.ndarray:
    """:func:`sketch_windows_batch` over rows that are already sorted."""
    if s <= 0:
        raise ValueError(f"sketch size must be positive, got {s}")
    n_rows, width = m.shape
    out = np.full((n_rows, s), SKETCH_PAD, dtype=np.uint64)
    out[:, :width] = m[:, :s]
    # A prefix is final unless it repeats a real value; equal PADs are
    # the padding itself.
    repeats = (out[:, 1:] == out[:, :-1]) & (out[:, 1:] != SKETCH_PAD)
    redo = np.flatnonzero(repeats.any(axis=1))
    if redo.size:
        out[redo] = _distinct_prefix(m[redo], s)
    return out


def _distinct_prefix(m: np.ndarray, s: int) -> np.ndarray:
    """First ``s`` distinct non-PAD values of each sorted row, PAD-filled."""
    n_rows = m.shape[0]
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
