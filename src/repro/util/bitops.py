"""Vectorized bit-field manipulation on packed integer arrays.

MetaCache packs k-mers into 2-bit-per-base integers (A=0, C=1, G=2,
T=3).  The reverse complement of an *already packed* k-mer reverses
the order of the 2-bit fields and complements each base, which for the
2-bit code is a plain bitwise NOT.  These routines implement the
classic bit-reversal networks on whole NumPy arrays, without a
Python-level loop.  The sketch kernel does not come through here: it
packs both strands straight from the code sequence
(:func:`repro.genomics.kmers.pack_canonical_kmers`).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "reverse_2bit_fields",
    "reverse_complement_2bit",
    "pack_pairs",
    "unpack_pairs",
    "bit_count",
]

_U64 = np.uint64

# Masks for the pairwise swap network on 64-bit words.  Each step
# swaps adjacent groups of bits twice the size of the previous step,
# starting at the 2-bit field granularity (we must *not* swap within a
# field, hence the first step swaps 2-bit groups, not single bits).
_M2 = _U64(0x3333333333333333)  # select even 2-bit fields
_M4 = _U64(0x0F0F0F0F0F0F0F0F)  # select low nibbles
_S2 = _U64(2)
_S4 = _U64(4)
_S8 = _U64(8)
_S16 = _U64(16)
_S32 = _U64(32)
_M8 = _U64(0x00FF00FF00FF00FF)
_M16 = _U64(0x0000FFFF0000FFFF)
_M32 = _U64(0x00000000FFFFFFFF)


def reverse_2bit_fields(values: np.ndarray, k: int) -> np.ndarray:
    """Reverse the order of ``k`` 2-bit fields in each 64-bit word.

    The k-mer is assumed to occupy the *low* ``2*k`` bits with the
    first base in the most-significant occupied position (big-endian
    base order, the conventional packing).  Returns a new array.

    Parameters
    ----------
    values:
        ``uint64`` array of packed k-mers.
    k:
        number of 2-bit fields (bases) per word, ``1 <= k <= 32``.
    """
    if not 1 <= k <= 32:
        raise ValueError(f"k must be in [1, 32], got {k}")
    v = np.asarray(values, dtype=_U64)
    # Full 64-bit reversal at 2-bit granularity via swap network.
    v = ((v >> _S2) & _M2) | ((v & _M2) << _S2)
    v = ((v >> _S4) & _M4) | ((v & _M4) << _S4)
    v = ((v >> _S8) & _M8) | ((v & _M8) << _S8)
    v = ((v >> _S16) & _M16) | ((v & _M16) << _S16)
    v = (v >> _S32) | (v << _S32)
    # The k fields now sit in the high 2*k bits; shift them back down.
    return v >> _U64(64 - 2 * k)


def reverse_complement_2bit(values: np.ndarray, k: int) -> np.ndarray:
    """Reverse-complement packed 2-bit k-mers (vectorized).

    With the A=0, C=1, G=2, T=3 code the complement of a base is its
    bitwise NOT within the field, so the reverse complement is a field
    reversal followed by masked complement.
    """
    rev = reverse_2bit_fields(values, k)
    mask = _U64(0xFFFFFFFFFFFFFFFF) if k == 32 else _U64((1 << (2 * k)) - 1)
    return (~rev) & mask


def pack_pairs(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Pack two ``uint32``-ranged arrays into one ``uint64``.

    Used for reference locations: ``high`` = target id, ``low`` =
    window id.  Sorting the packed array orders by target then window,
    exactly the order the candidate-generation kernel requires.
    """
    return (np.asarray(high, dtype=_U64) << _S32) | (
        np.asarray(low, dtype=_U64) & _M32
    )


def unpack_pairs(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`pack_pairs`; returns ``(high, low)`` as uint32."""
    p = np.asarray(packed, dtype=_U64)
    return (p >> _S32).astype(np.uint32), (p & _M32).astype(np.uint32)


def bit_count(values: np.ndarray) -> np.ndarray:
    """Population count per element (uint64-safe, vectorized)."""
    v = np.asarray(values, dtype=_U64)
    c1 = _U64(0x5555555555555555)
    c2 = _U64(0x3333333333333333)
    c4 = _U64(0x0F0F0F0F0F0F0F0F)
    v = v - ((v >> _U64(1)) & c1)
    v = (v & c2) + ((v >> _U64(2)) & c2)
    v = (v + (v >> _U64(4))) & c4
    return ((v * _U64(0x0101010101010101)) >> _U64(56)).astype(np.int64)
