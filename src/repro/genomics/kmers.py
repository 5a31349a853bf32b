"""Vectorized canonical k-mer extraction.

Given an encoded sequence of length ``n`` this module produces the
``n - k + 1`` packed 2-bit k-mers, their validity mask (a k-mer is
invalid if it covers any ambiguous base) and the canonical form
``min(kmer, revcomp(kmer))`` that MetaCache hashes.

Packing is by *doubling*: the ``2m``-mer at position ``i`` is the
``m``-mer at ``i`` joined with the ``m``-mer at ``i + m``, so a k-mer
takes ``O(log k)`` vector passes over the sequence (one doubling per
binary digit of ``k`` plus one single-base append per set digit), not
``k``.  The reverse-complement strand obeys the mirrored recurrence
(the two halves swap sides), so both strands are packed side by side
and the canonical form is one ``np.minimum`` -- no bit-reversal
network.  Words are ``uint32`` when the k-mer fits (``2k <= 32``),
``uint64`` otherwise.  The only Python loop walks the bits of ``k``,
never sequence positions.
"""

from __future__ import annotations

import numpy as np

from repro.util.bitops import reverse_complement_2bit

__all__ = [
    "pack_kmers",
    "kmer_validity",
    "canonical_kmers",
    "valid_canonical_kmers",
    "pack_canonical_kmers",
]

_U64 = np.uint64


def _check_k(k: int) -> None:
    if not 1 <= k <= 32:
        raise ValueError(f"k must be in [1, 32], got {k}")


def _word(k: int) -> type:
    """The narrowest word the doubling runs in: a k-mer takes ``2k`` bits."""
    return np.uint32 if 2 * k <= 32 else _U64


def _ambiguous(codes: np.ndarray) -> np.ndarray | None:
    """Mask of ambiguous bases, or ``None`` when the sequence has none."""
    bad = codes > 3
    return bad if bad.any() else None


def _covers(bad: np.ndarray, k: int) -> np.ndarray:
    """True where the k-mer starting at ``i`` covers a flagged base.

    A difference of running counts, so cost is O(n) regardless of k
    (``int32`` is enough: only equality of two counts at most ``k``
    apart is read, which survives wrap-around).
    """
    cum = np.zeros(bad.size + 1, dtype=np.int32)
    np.cumsum(bad, dtype=np.int32, out=cum[1:])
    return cum[k:] != cum[:-k]


def _join(
    left: np.ndarray, right: np.ndarray, a: int, b: int, reverse: bool
) -> np.ndarray:
    """The (a+b)-mer at every position from its a-mer and b-mer halves.

    ``left[i]`` is the a-mer and ``right[i]`` the b-mer starting at
    position ``i``.  Forward strand: the a-mer at ``i`` is the high
    part and the b-mer at ``i + a`` the low part.  Reverse-complement
    strand: reversing swaps the halves, so the b-mer at ``i + a`` is
    the high part.
    """
    size = left.size - b
    head, tail = left[:size], right[a : a + size]
    if reverse:
        out = np.left_shift(tail, 2 * a)
        out |= head
    else:
        out = np.left_shift(head, 2 * b)
        out |= tail
    return out


def _pack_strand(bases: np.ndarray, k: int, reverse: bool) -> np.ndarray:
    """All k-mers of one strand from its per-position 1-mers, by doubling.

    Square-and-multiply over the binary digits of ``k``: each digit
    doubles the current m-mers, a set digit appends one more base.
    """
    kmers, m = bases, 1
    for digit in bin(k)[3:]:
        kmers = _join(kmers, kmers, m, m, reverse)
        m *= 2
        if digit == "1":
            kmers = _join(kmers, bases, m, 1, reverse)
            m += 1
    return kmers


def _forward_bases(
    codes: np.ndarray, k: int, bad: np.ndarray | None
) -> np.ndarray:
    """Per-position 1-mers in the narrowest word that holds a k-mer.

    Ambiguous bases become code 0 (their k-mers are discarded by the
    validity mask; the value only has to stay inside its 2-bit field).
    """
    if bad is not None:
        codes = np.where(bad, np.uint8(0), codes)
    return codes.astype(_word(k))


def pack_kmers(codes: np.ndarray, k: int) -> np.ndarray:
    """Pack all k-mers of an encoded sequence into uint64 values.

    Ambiguous bases are packed as code 0; callers must combine with
    :func:`kmer_validity` to discard affected k-mers.  Returns an
    array of length ``max(0, len(codes) - k + 1)``.
    """
    _check_k(k)
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.size < k:
        return np.zeros(0, dtype=_U64)
    bases = _forward_bases(codes, k, _ambiguous(codes))
    return _pack_strand(bases, k, reverse=False).astype(_U64)


def kmer_validity(codes: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask: True where the k-mer starting at i has no AMBIG base."""
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.size < k:
        return np.zeros(0, dtype=bool)
    bad = _ambiguous(codes)
    if bad is None:
        return np.ones(codes.size - k + 1, dtype=bool)
    return ~_covers(bad, k)


def canonical_kmers(kmers: np.ndarray, k: int) -> np.ndarray:
    """Canonical form: element-wise min of k-mer and its reverse complement.

    Using the numeric minimum makes the canonical choice orientation
    independent: a read from the reverse strand produces the same
    canonical k-mers as the forward reference.  For already-packed
    words; from a code sequence :func:`pack_canonical_kmers` gets the
    same values without the bit-reversal network.
    """
    kmers = np.asarray(kmers, dtype=_U64)
    rc = reverse_complement_2bit(kmers, k)
    return np.minimum(kmers, rc)


def pack_canonical_kmers(
    codes: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Canonical k-mer at every position, plus which ones are invalid.

    Returns ``(canonical, invalid)``.  ``canonical`` has length
    ``max(0, len(codes) - k + 1)`` and dtype ``uint32`` when
    ``2k <= 32``, else ``uint64``; it equals
    ``canonical_kmers(pack_kmers(codes, k), k)`` value for value.
    ``invalid`` is ``None`` when the sequence has no ambiguous base
    (the common case pays one ``uint8`` comparison for it), otherwise
    the complement of :func:`kmer_validity`.
    """
    _check_k(k)
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.size < k:
        return np.zeros(0, dtype=_word(k)), None
    bad = _ambiguous(codes)
    forward = _forward_bases(codes, k, bad)
    canonical = _pack_strand(forward, k, reverse=False)
    # complement of a 2-bit base is 3 - base
    np.minimum(canonical, _pack_strand(forward ^ 3, k, reverse=True), out=canonical)
    return canonical, None if bad is None else _covers(bad, k)


def valid_canonical_kmers(codes: np.ndarray, k: int) -> np.ndarray:
    """All valid canonical k-mers of an encoded sequence, in order.

    Convenience composition used by the scalar reference paths and the
    Kraken2-like baseline.
    """
    canonical, invalid = pack_canonical_kmers(codes, k)
    if invalid is not None:
        canonical = canonical[~invalid]
    return canonical.astype(_U64)
