"""Hashing substrate: k-mer hash functions and minhash sketching.

Two hash functions appear in MetaCache (Section 4.1):

- ``h1`` maps canonical k-mers to *features*; the ``s`` smallest
  distinct feature values in a window form its minhash sketch.
- ``h2`` maps features to hash-table slots; it lives with the table's
  probing in :mod:`repro.warpcore.probing`.

Both are murmur-style integer finalizers, implemented as vectorized
NumPy transforms on uint64/uint32 arrays.
"""

from repro.hashing.hashes import fmix32, fmix64, hash_kmers_h1
from repro.hashing.minhash import (
    sketch_window,
    sketch_windows_batch,
    window_hash_matrix,
    SKETCH_PAD,
)
from repro.hashing.sketch import SketchParams, sketch_sequence

__all__ = [
    "fmix32",
    "fmix64",
    "hash_kmers_h1",
    "sketch_window",
    "sketch_windows_batch",
    "window_hash_matrix",
    "SKETCH_PAD",
    "SketchParams",
    "sketch_sequence",
]
