"""Vectorized bitonic sorting networks.

A bitonic network of width ``n`` (power of two) is a fixed sequence of
compare-exchange steps; because the step sequence is data independent
it vectorizes perfectly: each step becomes a min/max over two fancy-
indexed column views of the whole batch matrix.  This mirrors how the
GPU kernels run the same network in registers across a warp
(Section 5.3 uses it for sketch ordering, Section 5.5 for segment
sorting).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["bitonic_sort_rows", "bitonic_compare_exchange_steps"]


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


def bitonic_compare_exchange_steps(width: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield the compare-exchange steps of a bitonic network.

    Each step is ``(left_idx, right_idx, ascending)``: compare element
    pairs (left, right) and place min at left when ascending is True,
    max otherwise.  ``width`` must be a power of two.  Exposed
    separately so the warp-level kernel emulation can replay the very
    same network one step at a time.
    """
    if width & (width - 1):
        raise ValueError(f"width must be a power of two, got {width}")
    idx = np.arange(width)
    k = 2
    while k <= width:
        j = k // 2
        while j >= 1:
            partner = idx ^ j
            mask = partner > idx
            left = idx[mask]
            right = partner[mask]
            ascending = (left & k) == 0
            yield left, right, ascending
            j //= 2
        k *= 2


def bitonic_sort_rows(matrix: np.ndarray, pad_value=None) -> np.ndarray:
    """Sort each row ascending with a batched bitonic network.

    Rows are padded to the next power of two with ``pad_value``
    (default: the dtype maximum) so the pad sorts to the end; the
    returned array has the original width with every row sorted.
    A new array is returned; the input is untouched.
    """
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise ValueError("matrix must be 2-D")
    n_rows, width = m.shape
    if width == 0 or n_rows == 0:
        return m.copy()
    if pad_value is None:
        if np.issubdtype(m.dtype, np.integer):
            pad_value = np.iinfo(m.dtype).max
        else:
            pad_value = np.inf
    padded_width = _next_pow2(width)
    if padded_width != width:
        work = np.full((n_rows, padded_width), pad_value, dtype=m.dtype)
        work[:, :width] = m
    else:
        work = m.copy()
    for left, right, ascending in bitonic_compare_exchange_steps(padded_width):
        a = work[:, left]
        b = work[:, right]
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        asc = ascending[None, :]
        work[:, left] = np.where(asc, lo, hi)
        work[:, right] = np.where(asc, hi, lo)
    return work[:, :width]
