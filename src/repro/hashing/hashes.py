"""Murmur-style integer hash finalizers, vectorized.

These are the classic MurmurHash3 finalizers (fmix32 / fmix64): cheap,
invertible, statistically strong bit mixers.  MetaCache uses exactly
this family for both the k-mer feature hash (h1) and the table slot
hash (h2).  All functions operate element-wise on NumPy arrays with
explicit unsigned dtypes so the wrap-around arithmetic matches the
C++ semantics bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fmix32", "fmix64", "hash_kmers_h1", "hash_features_h2"]

_U32 = np.uint32
_U64 = np.uint64


def fmix32(values: np.ndarray | int) -> np.ndarray:
    """MurmurHash3 32-bit finalizer (vectorized)."""
    h = np.asarray(values, dtype=_U32).copy()
    h ^= h >> _U32(16)
    h *= _U32(0x85EBCA6B)
    h ^= h >> _U32(13)
    h *= _U32(0xC2B2AE35)
    h ^= h >> _U32(16)
    return h


def _fmix64_inplace(h: np.ndarray) -> np.ndarray:
    h ^= h >> _U64(33)
    h *= _U64(0xFF51AFD7ED558CCD)
    h ^= h >> _U64(33)
    h *= _U64(0xC4CEB9FE1A85EC53)
    h ^= h >> _U64(33)
    return h


def fmix64(values: np.ndarray | int) -> np.ndarray:
    """MurmurHash3 64-bit finalizer (vectorized)."""
    return _fmix64_inplace(np.array(values, dtype=_U64))


def hash_kmers_h1(kmers: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Feature hash h1: canonical k-mer -> 32-bit feature value.

    Returned as uint64 (values < 2**32) so downstream code can reserve
    the full uint64 range above 2**32 for sentinels.  Matching the
    paper's layout, features are 32-bit which keeps the hash-table key
    arrays half the size of naive 64-bit keys.

    ``out`` (uint64, same shape) receives the result when given: the
    k-mers -- of any unsigned width -- are widened into it once and
    mixed in place.
    """
    if out is None:
        out = np.array(kmers, dtype=_U64)
    else:
        out[...] = kmers
    _fmix64_inplace(out)
    out &= _U64(0xFFFFFFFF)
    return out


def hash_features_h2(features: np.ndarray) -> np.ndarray:
    """Slot hash h2: feature -> 64-bit probe base.

    A different finalizer seed (xor constant) decorrelates h2 from h1;
    Section 4.1 explains this counteracts the biased distribution of
    sketch values (sketches select *small* h1 values, so hashing the
    feature again is required for uniform slot occupancy).
    """
    return fmix64(np.asarray(features, dtype=_U64) ^ _U64(0x9E3779B97F4A7C15))
