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

:class:`LocationKeyLayout` owns that format.  The query pipeline never
unpacks: it squeezes each distinct feature's list once, gathers the
keys of every occurrence, sorts them (:meth:`~LocationKeyLayout.sort_segments`)
and top-candidate generation (:mod:`repro.core.candidates`) reads the
sorted keys; :func:`segmented_sort_lexsort` is the standalone
locations-in, locations-out form.  When the three fields of a batch do
not fit 64 bits the same code runs over contiguous groups of reads with
a narrower read field (:meth:`LocationKeyLayout.groups`) -- down to one
read per group, where the key is the compressed location alone.
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

    def squeeze(self, locations: np.ndarray) -> np.ndarray:
        """The compressed locations as keys with a zero read field (fresh)."""
        keys = locations >> _HALF
        keys *= self._squeeze
        np.subtract(locations, keys, out=keys)
        return keys

    def number(
        self, keys: np.ndarray, offsets: np.ndarray, groups: list[tuple[int, int]]
    ) -> np.ndarray:
        """Write the read field of ``keys`` in place; returns ``keys``.

        Segment ``i`` is ``keys[offsets[i]:offsets[i+1]]``, and the
        segments of each ``[first, last)`` group are numbered from
        zero.  Fields never overlap, so the number is added.
        """
        for first, last in groups:
            numbers = np.arange(last - first, dtype=np.uint64)
            numbers <<= np.uint64(self.payload_bits)
            lengths = np.diff(offsets[first : last + 1])
            keys[offsets[first] : offsets[last]] += np.repeat(numbers, lengths)
        return keys

    def sort_segments(
        self, keys: np.ndarray, offsets: np.ndarray, groups: list[tuple[int, int]]
    ) -> np.ndarray:
        """:meth:`number` ``keys``, then sort each group in place.

        Afterwards every segment is ascending within its group's keys,
        the order the top-candidate stage reads.  Returns ``keys``.
        """
        self.number(keys, offsets, groups)
        for first, last in groups:
            keys[offsets[first] : offsets[last]].sort()
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
    ``values[offsets[i]:offsets[i+1]]``.  Pack ``(segment | value)``
    into one ``uint64`` key, one in-place ``np.sort``, unpack (module
    docstring) -- the same bytes the former two-key
    ``np.lexsort((value, segment))`` returned, which is where the name
    comes from.  The query pipeline runs the same sort without the
    unpack.
    """
    v = np.asarray(values, dtype=np.uint64)
    offsets = np.asarray(offsets, dtype=np.int64)
    layout = LocationKeyLayout.of(v)
    keys = layout.squeeze(v)
    # one sort per bit-budget group, normally a single one
    layout.sort_segments(keys, offsets, layout.groups(offsets.size - 1))
    return layout.unpack(keys)
