"""Nucleotide alphabet and string <-> code-array conversion.

Sequences are held as ``uint8`` code arrays: A=0, C=1, G=2, T=3 and
``AMBIG`` (255) for every other character (N, IUPAC codes, gaps).
The 2-bit code is chosen so that the complement of a base is the
bitwise NOT of its code within the field (A<->T is 0<->3, C<->G is
1<->2), which lets the k-mer kernels complement via pure bit math.

The paper's GPU kernel encodes characters with 3 bits to capture N as
a separate flag; we keep the equivalent information as the ``AMBIG``
sentinel plus validity masks computed in :mod:`repro.genomics.kmers`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "A",
    "C",
    "G",
    "T",
    "AMBIG",
    "encode_sequence",
    "decode_sequence",
    "complement_codes",
    "reverse_complement_str",
]

A = np.uint8(0)
C = np.uint8(1)
G = np.uint8(2)
T = np.uint8(3)
AMBIG = np.uint8(255)

# Byte-indexed lookup table covering upper and lower case.
_ENCODE_LUT = np.full(256, AMBIG, dtype=np.uint8)
for _ch, _code in (("A", A), ("C", C), ("G", G), ("T", T), ("U", T)):
    _ENCODE_LUT[ord(_ch)] = _code
    _ENCODE_LUT[ord(_ch.lower())] = _code
# the same table as ``bytes.translate`` wants it
_ENCODE_TABLE = _ENCODE_LUT.tobytes()

_DECODE_LUT = np.full(256, ord("N"), dtype=np.uint8)
_DECODE_LUT[0] = ord("A")
_DECODE_LUT[1] = ord("C")
_DECODE_LUT[2] = ord("G")
_DECODE_LUT[3] = ord("T")

_COMPLEMENT_LUT = np.full(256, AMBIG, dtype=np.uint8)
_COMPLEMENT_LUT[0:4] = [3, 2, 1, 0]


def encode_sequence(seq: str | bytes | np.ndarray) -> np.ndarray:
    """Convert a nucleotide string to a uint8 code array.

    Accepts ``str``, ``bytes`` or an existing uint8 code array (which
    is passed through unchanged, making the function idempotent so
    call sites can accept either representation).
    """
    if isinstance(seq, np.ndarray):
        if seq.dtype != np.uint8:
            raise TypeError(f"code arrays must be uint8, got {seq.dtype}")
        return seq
    if isinstance(seq, str):
        seq = seq.encode("ascii")
    # translate runs at memcpy-like speed where a fancy index gathers
    # byte by byte; the bytearray keeps the result writable
    return np.frombuffer(bytearray(seq.translate(_ENCODE_TABLE)), dtype=np.uint8)


def decode_sequence(codes: np.ndarray) -> str:
    """Convert a code array back to an upper-case string (AMBIG -> N)."""
    return _DECODE_LUT[np.asarray(codes, dtype=np.uint8)].tobytes().decode("ascii")


def complement_codes(codes: np.ndarray) -> np.ndarray:
    """Per-base complement of a code array (AMBIG stays AMBIG)."""
    return _COMPLEMENT_LUT[np.asarray(codes, dtype=np.uint8)]


def reverse_complement_str(seq: str) -> str:
    """Reverse complement of a nucleotide string (reference helper)."""
    return decode_sequence(complement_codes(encode_sequence(seq))[::-1])
