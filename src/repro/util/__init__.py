"""Low-level utilities shared by all subsystems.

The helpers here are deliberately free of any domain knowledge: bit
manipulation on packed integer arrays, segmented array primitives
(run-length encoding, per-segment ranking/top-k selection), simple
prefix-scan wrappers and instrumentation timers.  Everything operates
on NumPy arrays and is fully vectorized -- these functions form the
"device primitives" layer that the simulated GPU kernels are built on.
"""

from repro.util.bitops import (
    reverse_2bit_fields,
    reverse_complement_2bit,
    pack_pairs,
    unpack_pairs,
)
from repro.util.segmented import (
    run_length_encode,
    segment_boundaries,
    segmented_cumcount,
    segment_ids_from_offsets,
    offsets_from_segment_ids,
    first_occurrence_mask,
)
from repro.util.scan import exclusive_prefix_sum
from repro.util.timer import StageTimer, Timer
from repro.util.rng import derive_rng

__all__ = [
    "reverse_2bit_fields",
    "reverse_complement_2bit",
    "pack_pairs",
    "unpack_pairs",
    "run_length_encode",
    "segment_boundaries",
    "segmented_cumcount",
    "segment_ids_from_offsets",
    "offsets_from_segment_ids",
    "first_occurrence_mask",
    "exclusive_prefix_sum",
    "StageTimer",
    "Timer",
    "derive_rng",
]
