"""Prefix-scan wrappers.

Kept as a dedicated module because the GPU pipeline text (Section 5.4)
explicitly introduces a prefix sum over per-window location counts to
drive the compaction kernel; the bench harness also references these
as the device-primitive analogue.
"""

from __future__ import annotations

import numpy as np

__all__ = ["exclusive_prefix_sum"]


def exclusive_prefix_sum(values: np.ndarray) -> np.ndarray:
    """Exclusive scan with total appended: length ``n+1``, ``out[0]=0``.

    The returned array doubles as an offsets table: segment ``i``
    spans ``out[i]:out[i+1]`` in the compacted layout.
    """
    v = np.asarray(values, dtype=np.int64)
    out = np.zeros(v.size + 1, dtype=np.int64)
    np.cumsum(v, out=out[1:])
    return out
