"""Warp-level emulations of the paper's CUDA kernels.

Each module replays one kernel of the Section 5 pipeline at SIMT
granularity using the :mod:`repro.gpu.warp` primitives.  They are not
the production path (the batch-vectorized implementations in
:mod:`repro.hashing` / :mod:`repro.core` are); they exist so tests can
prove the batch path computes exactly what the cooperative warp
algorithm would, preserving the paper's algorithmic contribution even
though no GPU executes here.

:mod:`~repro.gpu.kernels.bitonic` and
:mod:`~repro.gpu.kernels.segmented_sort_kernel` hold the batched
bitonic network and the size-binned segmented sort of Hou et al. [12]
-- the device sort's structure, measured by the ablation benches.
"""

from repro.gpu.kernels.bitonic import bitonic_compare_exchange_steps, bitonic_sort_rows
from repro.gpu.kernels.minhash_kernel import warp_sketch_window, warp_encode_window
from repro.gpu.kernels.candidates_kernel import warp_top_candidates
from repro.gpu.kernels.compact_kernel import block_compact_windows
from repro.gpu.kernels.segmented_sort_kernel import (
    SegmentedSortPlan,
    plan_bins,
    segmented_sort,
    segmented_sort_reference,
)

__all__ = [
    "warp_sketch_window",
    "warp_encode_window",
    "warp_top_candidates",
    "block_compact_windows",
    "bitonic_sort_rows",
    "bitonic_compare_exchange_steps",
    "SegmentedSortPlan",
    "plan_bins",
    "segmented_sort",
    "segmented_sort_reference",
]
