"""Sorting substrate of the query hot path: segmented sort, compaction.

Section 5.5: the GPU pipeline sorts the per-read location lists with a
key-only segmented sort.  :mod:`repro.sort.segmented` is its host
form -- every location is packed with its read number into one
``uint64`` key and the whole batch is ordered by a single in-place
``np.sort`` -- and owns that key format, which top-candidate
generation reuses.  (The size-binned bitonic-network *kernel
structure* of Hou et al. [12] lives with the other kernel emulations
in ``benchmarks/paper/gpu/kernels/``, outside the installed package.)

:mod:`repro.sort.compaction` turns per-window location counts into
the per-read segment offsets of Section 5.4's compaction step.
"""

from repro.sort.segmented import LocationKeyLayout, segmented_sort_lexsort
from repro.sort.compaction import read_segment_offsets

__all__ = [
    "LocationKeyLayout",
    "segmented_sort_lexsort",
    "read_segment_offsets",
]
