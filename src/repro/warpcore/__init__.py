"""WarpCore-style GPU hash tables (simulated), including the paper's
novel Multi-Bucket variant.

The paper (Sections 3 and 5.1) extends the WarpCore framework [16]
with a *multi-bucket* hash table: open addressing where every slot
stores a key plus a small fixed number of values, and a key may occupy
several slots along its probe sequence, so it can hold arbitrarily
many values without linked lists.  This beats WarpCore's Multi-Value
table (one value per slot: key storage repeated per value) and Bucket
List table (pointer-chased growable buckets) on both memory and
throughput for the skewed location-count distributions of k-mer
indices.

All four variants are implemented here with identical *batch*
interfaces.  Insertion and retrieval are expressed as data-parallel
probe rounds over whole batches -- the vectorized analogue of the
warp-aggregated cooperative-group operations in CUDA -- so the
semantics (probe order, claim resolution, capacity limits) mirror the
device algorithm step for step.  A walk hashes its key once
(:meth:`ProbingScheme.probe_bases`) and every round is one scalar step
of all live walks (:meth:`ProbingScheme.slots_at`); empty slots are
claimed through one primitive, :func:`repro.warpcore.base.claim_empty_slots`,
the batch stand-in for ``atomicCAS``.

- :class:`MultiBucketHashTable` -- the paper's contribution.
- :class:`MultiValueHashTable` -- WarpCore baseline, 1 value/slot.
- :class:`BucketListHashTable` -- WarpCore baseline, linked buckets.
- :class:`SingleValueHashTable` -- key -> single value; used for the
  condensed (load-from-disk) query layout, Section 5.1.
"""

from repro.warpcore.base import EMPTY_KEY, TableStats
from repro.warpcore.probing import ProbingScheme
from repro.warpcore.single_value import SingleValueHashTable
from repro.warpcore.multi_value import MultiValueHashTable
from repro.warpcore.bucket_list import BucketListHashTable
from repro.warpcore.multi_bucket import MultiBucketHashTable

__all__ = [
    "EMPTY_KEY",
    "TableStats",
    "ProbingScheme",
    "SingleValueHashTable",
    "MultiValueHashTable",
    "BucketListHashTable",
    "MultiBucketHashTable",
]
