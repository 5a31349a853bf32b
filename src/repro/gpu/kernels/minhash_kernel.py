"""Warp emulation of the minhash kernel (Section 5.3, steps 1-3).

The CUDA kernel assigns one warp per window of at most 128 characters:

1. each thread 4-byte-loads 4 consecutive characters and 2-bit-encodes
   them into one integer;
2. sub-warps of 4 adjacent threads XOR-shuffle their integers so every
   thread holds 16 consecutive characters, then one more shuffle pulls
   the next sub-warp's 16 characters: every thread now sees 32
   characters overlapping the neighbor sub-warp by 16;
3. thread ``i`` emits the four k-mers starting at window positions
   ``4i .. 4i+3`` and hashes them;
4. the warp bitonic-sorts all hashes in registers, removes duplicates
   and keeps the ``s`` smallest -> the sketch.

This module executes those steps lane-by-lane with the warp shuffle
primitives.  ``tests/test_gpu_kernels.py`` checks the result equals
:func:`repro.hashing.sketch.sketch_sequence` on the same window.
"""

from __future__ import annotations

import numpy as np

from repro.genomics.alphabet import AMBIG
from repro.genomics.kmers import canonical_kmers
from repro.gpu.kernels.bitonic import bitonic_sort_rows
from repro.gpu.warp import WARP_SIZE, shfl_down, shfl_xor
from repro.hashing.hashes import hash_kmers_h1
from repro.hashing.minhash import SKETCH_PAD

__all__ = ["warp_encode_window", "warp_sketch_window"]

_CHARS_PER_THREAD = 4
_MAX_WINDOW = WARP_SIZE * _CHARS_PER_THREAD  # 128, the paper's limit


def warp_encode_window(window_codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Steps 1-2: distribute window chars to lanes via XOR shuffles.

    Returns ``(char_matrix, ambig_matrix)`` of shape (32, 32): row
    ``i`` holds the 32 characters (2-bit codes; AMBIG tracked in the
    parallel boolean matrix) thread ``i`` ends up with -- its own
    sub-warp's 16 chars followed by the next sub-warp's 16.
    """
    w = np.asarray(window_codes, dtype=np.uint8)
    if w.size > _MAX_WINDOW:
        raise ValueError(f"window exceeds {_MAX_WINDOW} characters")
    padded = np.full(_MAX_WINDOW, AMBIG, dtype=np.uint8)
    padded[: w.size] = w

    # Step 1: per-lane 4-char register (packed as a small uint64 plus
    # an ambiguity bitmask, mirroring the kernel's auxiliary integer).
    lane_chars = padded.reshape(WARP_SIZE, _CHARS_PER_THREAD)
    packed = np.zeros(WARP_SIZE, dtype=np.uint64)
    ambig_bits = np.zeros(WARP_SIZE, dtype=np.uint64)
    for j in range(_CHARS_PER_THREAD):
        c = lane_chars[:, j].astype(np.uint64)
        is_ambig = lane_chars[:, j] == AMBIG
        packed |= np.where(is_ambig, np.uint64(0), c) << np.uint64(2 * (3 - j))
        ambig_bits |= is_ambig.astype(np.uint64) << np.uint64(3 - j)

    # Step 2a: XOR-shuffle combine within sub-warps of 4 so every lane
    # holds its sub-warp's 16 characters.  After the exchange with
    # mask m, each lane merges the partner's packed chars into the
    # correct 2-bit fields, exactly like the kernel's register math.
    def combine(vals: np.ndarray, bits: np.ndarray, width_chars: int, mask: int):
        other_vals = shfl_xor(vals, mask)
        other_bits = shfl_xor(bits, mask)
        lanes = np.arange(WARP_SIZE)
        # lanes whose partner holds the *following* chars keep their
        # chars in the high bits; the partner's go below.
        partner_is_later = (lanes & mask) == 0
        shift_v = np.uint64(2 * width_chars)
        shift_b = np.uint64(width_chars)
        merged_v = np.where(
            partner_is_later,
            (vals << shift_v) | other_vals,
            (other_vals << shift_v) | vals,
        )
        merged_b = np.where(
            partner_is_later,
            (bits << shift_b) | other_bits,
            (other_bits << shift_b) | bits,
        )
        return merged_v, merged_b

    vals, bits = combine(packed, ambig_bits, 4, 1)  # 8 chars/lane
    vals, bits = combine(vals, bits, 8, 2)  # 16 chars/lane

    # Step 2b: fetch the next sub-warp's 16 chars (shuffle down by 4
    # lanes).  The last sub-warp reads out of range; it receives pad.
    next_vals = shfl_down(vals, 4, fill=0)
    next_bits = shfl_down(bits, 4, fill=np.uint64(0xFFFF))

    # Materialize per-lane character windows for the k-mer stage.
    chars = np.zeros((WARP_SIZE, 32), dtype=np.uint8)
    ambig = np.zeros((WARP_SIZE, 32), dtype=bool)
    for pos in range(16):
        shift = np.uint64(2 * (15 - pos))
        chars[:, pos] = ((vals >> shift) & np.uint64(3)).astype(np.uint8)
        ambig[:, pos] = ((bits >> np.uint64(15 - pos)) & np.uint64(1)).astype(bool)
        chars[:, 16 + pos] = ((next_vals >> shift) & np.uint64(3)).astype(np.uint8)
        ambig[:, 16 + pos] = ((next_bits >> np.uint64(15 - pos)) & np.uint64(1)).astype(bool)
    return chars, ambig


def warp_sketch_window(window_codes: np.ndarray, k: int, s: int) -> np.ndarray:
    """Steps 1-4: full warp minhash of one window (k <= 16).

    Returns the sketch: the ``s`` smallest distinct canonical k-mer
    hashes, sorted ascending (shorter if the window has fewer).
    """
    if k > 16:
        raise ValueError("the warp kernel handles k <= 16 (paper default 16)")
    w = np.asarray(window_codes, dtype=np.uint8)
    chars, ambig = warp_encode_window(w)

    # Step 3: thread i emits k-mers at window positions 4i .. 4i+3.
    hashes = np.full((WARP_SIZE, _CHARS_PER_THREAD), SKETCH_PAD, dtype=np.uint64)
    n_kmers = max(0, w.size - k + 1)
    for lane in range(WARP_SIZE):
        for r in range(_CHARS_PER_THREAD):
            pos = 4 * lane + r
            if pos >= n_kmers:
                continue  # thread exceeds window boundary: emits nothing
            local = pos - 16 * (lane // 4)  # offset into lane's 32-char buffer
            if ambig[lane, local : local + k].any():
                continue
            kmer = np.uint64(0)
            for c in chars[lane, local : local + k]:
                kmer = (kmer << np.uint64(2)) | np.uint64(c)
            canon = canonical_kmers(np.array([kmer], dtype=np.uint64), k)[0]
            hashes[lane, r] = hash_kmers_h1(np.array([canon], dtype=np.uint64))[0]

    # Step 4: register bitonic sort across the warp, dedup, select s.
    flat = hashes.reshape(1, -1)
    sorted_flat = bitonic_sort_rows(flat)[0]
    valid = sorted_flat != SKETCH_PAD
    uniq = np.empty(sorted_flat.size, dtype=bool)
    uniq[0] = True
    uniq[1:] = sorted_flat[1:] != sorted_flat[:-1]
    return sorted_flat[valid & uniq][:s]
