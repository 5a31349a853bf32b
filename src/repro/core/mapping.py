"""Read mapping on top of the k-mer index (the paper's extension).

Section 6.2: "MetaCache is able to map reads to the most likely
locations of origin within reference sequences and thus produce
candidate regions for further downstream analysis like, e.g.,
alignments"; the conclusion proposes extending the index to read
mapping outright.  This module implements that extension: the top
candidate's window range converts to a base-coordinate interval on
the reference target, optionally refined by counting exact k-mer
matches of the read against the candidate region (a seed-verification
step, the "seed" half of seed-and-extend).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import MetaCacheParams
from repro.core.database import Database
from repro.core.query import query_database
from repro.genomics.kmers import valid_canonical_kmers
from repro.pipeline.packed import PackedReads

__all__ = ["ReadMapping", "map_reads", "refine_mapping"]


@dataclass
class ReadMapping:
    """Per-read mapping output (-1 target = unmapped).

    ``ref_begin``/``ref_end`` delimit the candidate region in base
    coordinates on the target sequence; the true read origin lies
    within it for correctly mapped reads (the interval spans the
    top-scoring window range, so it is window-granular, not
    base-exact -- downstream alignment refines it).
    """

    target: np.ndarray  # int64, -1 for unmapped
    ref_begin: np.ndarray  # int64 base offset
    ref_end: np.ndarray  # int64 base offset (exclusive)
    score: np.ndarray  # int64 sketch-hit score

    @property
    def mapped_mask(self) -> np.ndarray:
        return self.target >= 0

    @property
    def n_mapped(self) -> int:
        return int(self.mapped_mask.sum())


def map_reads(
    db: Database,
    packed: PackedReads,
    params: MetaCacheParams | None = None,
    min_hits: int | None = None,
) -> ReadMapping:
    """Map reads to candidate regions of their best-matching target."""
    params = params or db.params
    if min_hits is None:
        min_hits = params.classification.min_hits
    result = query_database(db, packed, params=params)
    cands = result.candidates
    n = cands.n_reads
    stride = params.window_stride
    w = params.sketch.window_size

    target = np.full(n, -1, dtype=np.int64)
    begin = np.zeros(n, dtype=np.int64)
    end = np.zeros(n, dtype=np.int64)
    score = np.zeros(n, dtype=np.int64)
    ok = cands.valid[:, 0] & (cands.score[:, 0] >= min_hits)
    idx = np.flatnonzero(ok)
    if idx.size:
        target[idx] = cands.target[idx, 0]
        begin[idx] = cands.window_first[idx, 0].astype(np.int64) * stride
        end[idx] = cands.window_last[idx, 0].astype(np.int64) * stride + w
        score[idx] = cands.score[idx, 0]
        # clip to the target length
        lengths = np.array([t.length for t in db.targets], dtype=np.int64)
        end[idx] = np.minimum(end[idx], lengths[target[idx]])
    return ReadMapping(target=target, ref_begin=begin, ref_end=end, score=score)


def refine_mapping(
    db_reference: np.ndarray,
    read: np.ndarray,
    region_begin: int,
    region_end: int,
    k: int = 16,
) -> tuple[int, float]:
    """Seed verification within a candidate region.

    Counts the read's canonical k-mers occurring in the region and
    returns ``(best_offset, kmer_identity)`` where ``best_offset`` is
    the region-relative position maximizing seed agreement (computed
    by diagonal voting, the standard seed-chaining shortcut) and
    ``kmer_identity`` the fraction of read k-mers found there.
    """
    region = db_reference[region_begin:region_end]
    read_kmers = valid_canonical_kmers(read, k)
    region_kmers = valid_canonical_kmers(region, k)
    if read_kmers.size == 0 or region_kmers.size == 0:
        return 0, 0.0
    order = np.argsort(region_kmers, kind="stable")
    sorted_region = region_kmers[order]
    pos = np.searchsorted(sorted_region, read_kmers)
    pos = np.minimum(pos, sorted_region.size - 1)
    hit = sorted_region[pos] == read_kmers
    if not hit.any():
        return 0, 0.0
    # diagonal voting: region_pos - read_pos concentrates at the true
    # offset for a correct mapping
    read_positions = np.flatnonzero(hit)
    region_positions = order[pos[hit]]
    diagonals = region_positions - read_positions
    values, counts = np.unique(diagonals, return_counts=True)
    best = int(values[np.argmax(counts)])
    identity = float(counts.max()) / read_kmers.size
    return best, identity
