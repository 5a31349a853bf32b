"""Segmented sort of per-read location lists on one machine-word key.

Step 6 of the query pipeline (Section 5.5) sorts every read's location
list -- a *key-only* sort over short segments.  The host analogue
keeps the key-only property: each ``uint64`` location
``target << 32 | window`` is rank-compressed to the bits the batch
actually uses and prefixed with its read number,

    key = read << (target_bits + window_bits) | target << window_bits | window

so one in-place ``np.sort`` of a ``uint64`` array (a SIMD quicksort
from NumPy 2.0) orders the whole batch by (read, target, window), and
dropping the read field and re-expanding the two halves returns the
locations themselves.  No index array, no second key.

:class:`LocationKeyLayout` owns that format; top-candidate generation
(:mod:`repro.core.candidates`) re-packs the sorted lists into the same
key.  When the three fields of a batch do not fit 64 bits the same code
runs over contiguous groups of reads with a narrower read field
(:meth:`LocationKeyLayout.groups`) -- down to one read per group, where
the key is the compressed location alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LocationKeyLayout", "segmented_sort_lexsort"]

_KEY_BITS = 64
_HALF = np.uint64(32)


@dataclass(frozen=True)
class LocationKeyLayout:
    """Field widths of the ``(read | target | window)`` key of one batch."""

    target_bits: int
    window_bits: int

    @classmethod
    def of(cls, locations: np.ndarray) -> "LocationKeyLayout":
        """Narrowest layout holding every location of a non-empty batch.

        The OR of all values has its highest set bit where the largest
        value has it, in each half independently, so one reduction
        gives both widths.
        """
        used = int(np.bitwise_or.reduce(locations))
        return cls((used >> 32).bit_length(), (used & 0xFFFFFFFF).bit_length())

    @property
    def payload_bits(self) -> int:
        """Bits below the read field: ``target_bits + window_bits``."""
        return self.target_bits + self.window_bits

    @property
    def _squeeze(self) -> np.uint64:
        # moving the target field from bit 32 down to bit window_bits
        # subtracts target * (2^32 - 2^window_bits); < 2^64 for any
        # 32-bit target, so the product cannot wrap
        return np.uint64((1 << 32) - (1 << self.window_bits))

    def groups(self, n_segments: int, reserve_bits: int = 0) -> list[tuple[int, int]]:
        """Contiguous ``[first, last)`` segment ranges whose keys fit 64 bits.

        Each range holds at most ``2 ** read_bits`` segments, where
        ``read_bits`` is what ``max(payload_bits, reserve_bits)`` leaves
        of the word -- normally every segment of the batch at once.
        """
        span = 1 << max(0, _KEY_BITS - max(self.payload_bits, reserve_bits))
        return [
            (first, min(first + span, n_segments))
            for first in range(0, n_segments, span)
        ]

    def pack(self, locations: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Keys of one group: ``lengths[i]`` locations belong to read ``i``.

        Returns a fresh array; fields never overlap, so the read prefix
        and the compressed location are combined by addition.
        """
        numbers = np.arange(lengths.size, dtype=np.uint64)
        keys = np.repeat(numbers << np.uint64(self.payload_bits), lengths)
        shifted = locations >> _HALF
        shifted *= self._squeeze
        keys += locations
        keys -= shifted
        return keys

    def unpack(self, keys: np.ndarray) -> np.ndarray:
        """Turn ``keys`` back into packed locations, in place."""
        keys &= np.uint64((1 << self.payload_bits) - 1)
        shifted = keys >> np.uint64(self.window_bits)
        shifted *= self._squeeze
        keys += shifted
        return keys

    @property
    def window_top(self) -> np.uint64:
        """Largest value the window field can hold, ``2^W - 1``."""
        return np.uint64((1 << self.window_bits) - 1)

    def reads(self, keys: np.ndarray) -> np.ndarray:
        """Read number (within the group) of each key."""
        return keys >> np.uint64(self.payload_bits)

    def runs(self, keys: np.ndarray) -> np.ndarray:
        """The ``(read | target)`` prefix: equal exactly within a run."""
        return keys >> np.uint64(self.window_bits)

    def targets(self, keys: np.ndarray) -> np.ndarray:
        """Target id of each key."""
        return self.runs(keys) & np.uint64((1 << self.target_bits) - 1)

    def windows(self, keys: np.ndarray) -> np.ndarray:
        """Window id of each key."""
        return keys & self.window_top


def segmented_sort_lexsort(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sort each segment of ``values`` ascending; returns a new array.

    ``offsets`` has length ``n_segments + 1``; segment ``i`` spans
    ``values[offsets[i]:offsets[i+1]]``.  The production segmented sort:
    pack ``(segment | value)`` into one ``uint64`` key, one in-place
    ``np.sort``, unpack (module docstring) -- the same bytes the former
    two-key ``np.lexsort((value, segment))`` returned, which is where
    the name comes from.
    """
    v = np.asarray(values, dtype=np.uint64)
    offsets = np.asarray(offsets, dtype=np.int64)
    out = np.empty_like(v)
    if v.size == 0:
        return out
    layout = LocationKeyLayout.of(v)
    # one pass per bit-budget group, normally a single one
    for first, last in layout.groups(offsets.size - 1):
        a, b = offsets[first], offsets[last]
        keys = layout.pack(v[a:b], np.diff(offsets[first : last + 1]))
        keys.sort()
        out[a:b] = layout.unpack(keys)
    return out
