"""Window partitioning of reference sequences and reads.

MetaCache divides every sequence into windows of length ``w`` that
overlap by ``k - 1`` bases so that no k-mer is lost at a boundary
(Section 4.1).  The distance between window starts -- the *stride* --
is therefore ``w - k + 1``; with the paper defaults (w=127, k=16) the
stride is 112, deliberately a multiple of 4 so the GPU kernel can do
aligned 4-byte loads (Section 5.2).  We keep that constraint check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError

__all__ = [
    "WindowLayout",
    "num_windows",
    "window_slices",
    "packed_window_slices",
]


@dataclass(frozen=True)
class WindowLayout:
    """Window geometry derived from k-mer length and window size.

    Attributes
    ----------
    k: k-mer length.
    window_size: window length ``w`` in bases.
    stride: distance between window starts, ``w - k + 1``.
    """

    k: int
    window_size: int

    def __post_init__(self) -> None:
        if self.window_size < self.k:
            raise ConfigError(
                f"window_size ({self.window_size}) must be >= k ({self.k})"
            )

    @property
    def stride(self) -> int:
        return self.window_size - self.k + 1

    @property
    def stride_aligned(self) -> bool:
        """True when the stride honors the GPU 4-byte alignment rule."""
        return self.stride % 4 == 0

    def num_windows(self, seq_len: int) -> int:
        return num_windows(seq_len, self.window_size, self.stride, self.k)

    def window_slices(self, seq_len: int) -> tuple[np.ndarray, np.ndarray]:
        return window_slices(seq_len, self.window_size, self.stride, self.k)

    def covered_windows(self, read_len: int) -> int:
        """Number of consecutive reference windows a read may span.

        Determines the sliding-window size of the top-candidate kernel:
        a read of this length can produce hits in at most this many
        contiguous reference windows (plus one for straddling).
        """
        if read_len <= 0:
            return 0
        return max(1, -(-max(read_len - self.k + 1, 1) // self.stride))

    def covered_windows_batch(self, read_lens: np.ndarray) -> np.ndarray:
        """:meth:`covered_windows` over a whole batch at once (int64).

        Element-for-element identical to the scalar method -- the
        packed query path uses this instead of a per-read Python loop.
        """
        lens = np.asarray(read_lens, dtype=np.int64)
        kmers = np.maximum(lens - self.k + 1, 1)
        covered = np.maximum(1, -(-kmers // self.stride))
        return np.where(lens <= 0, 0, covered)

    def packed_window_slices(
        self, seg_lengths: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return packed_window_slices(
            seg_lengths, self.window_size, self.stride, self.k
        )


def num_windows(seq_len: int, window_size: int, stride: int, k: int) -> int:
    """Number of windows needed to cover ``seq_len`` bases.

    A sequence shorter than ``k`` contains no k-mers and yields zero
    windows.  Otherwise windows start at 0, stride, 2*stride, ... and
    the last window begins at the last start that still contains a
    full k-mer.
    """
    if seq_len < k:
        return 0
    # Last admissible start: a window must contain at least one k-mer.
    last_start = seq_len - k
    return last_start // stride + 1


def window_slices(
    seq_len: int, window_size: int, stride: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Start and end offsets of every window of a sequence.

    Returns ``(starts, ends)``; ``ends`` are clipped to ``seq_len`` so
    the final window may be shorter than ``window_size`` (it always
    holds at least one whole k-mer).
    """
    n = num_windows(seq_len, window_size, stride, k)
    starts = np.arange(n, dtype=np.int64) * stride
    ends = np.minimum(starts + window_size, seq_len)
    return starts, ends


def packed_window_slices(
    seg_lengths: np.ndarray, window_size: int, stride: int, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`window_slices` for every segment of a packed batch at once.

    Given the lengths of all segments of a contiguous batch, returns
    ``(counts, segment_ids, starts, ends)``: ``counts[i]`` is the
    number of windows of segment ``i`` (its :func:`num_windows`), and
    the remaining three flat arrays describe every window in segment
    order -- the segment it belongs to and its start/end offsets
    *local to that segment* (ends clipped to the segment, exactly as
    :func:`window_slices` clips).  Pure array ops: the per-window axis
    is built with one ``repeat`` + one subtraction, never a Python
    loop over segments.
    """
    seg_lengths = np.asarray(seg_lengths, dtype=np.int64)
    counts = np.where(seg_lengths >= k, (seg_lengths - k) // stride + 1, 0)
    segment_ids = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    win_offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=win_offsets[1:])
    local = (
        np.arange(segment_ids.size, dtype=np.int64)
        - win_offsets[segment_ids]
    )
    starts = local * stride
    ends = np.minimum(starts + window_size, seg_lengths[segment_ids])
    return counts, segment_ids, starts, ends
