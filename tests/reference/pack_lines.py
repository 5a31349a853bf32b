"""The line packer, kept verbatim as the oracle of ``from_ascii``.

Before FASTQ blocks took the shape of FASTA's, the parser handed over
the file's own sequence lines, each still ending in ``\\n``, and
``PackedReads.from_lines`` stripped the terminators while packing.
This is that classmethod, moved out of ``src/`` unchanged as a
function; ``tests/test_packed_equivalence.py`` asserts
:meth:`repro.pipeline.packed.PackedReads.from_ascii` packs the same
reads without their line ends into the same batch.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.genomics.alphabet import encode_sequence
from repro.pipeline.packed import PackedReads

__all__ = ["from_lines"]


def from_lines(
    lines: Sequence[bytes], mate_lines: Sequence[bytes] | None = None
) -> PackedReads:
    """Pack a block of ASCII sequence lines, each ending in ``\\n``.

    The file-bytes adapter (what a FASTA/FASTQ parser hands over):
    one join, one encode and one cumulative sum per batch, no
    per-read array.  ``mate_lines`` are interleaved by stride before
    the join, giving the same paired layout as
    :meth:`PackedReads.from_reads`.
    """
    n = len(lines)
    if mate_lines is not None:
        if len(mate_lines) != n:
            raise ValueError("mates list must match sequences list")
        interleaved = [b""] * (2 * n)
        interleaved[0::2] = lines
        interleaved[1::2] = mate_lines
        lines = interleaved
    sizes = np.fromiter(map(len, lines), count=len(lines), dtype=np.int64)
    offsets = np.zeros(len(lines) + 1, dtype=np.int64)
    np.cumsum(sizes - 1, out=offsets[1:])
    read_ids = np.arange(n, dtype=np.int64)
    return PackedReads(
        buffer=encode_sequence(b"".join(lines).replace(b"\n", b"")),
        offsets=offsets,
        read_ids=read_ids if mate_lines is None else np.repeat(read_ids, 2),
        n_reads=n,
        paired=mate_lines is not None,
    )
