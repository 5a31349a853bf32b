"""Classification rule: top hits -> taxon (Section 4.2).

"The top m counts (top hits) are then used to classify the read. ...
If the difference of the highest and second highest count is above a
threshold, the read is labeled as belonging to the taxon of the
genome corresponding to the maximum count.  Otherwise, all targets
with counts close to the maximum are considered, the lowest common
ancestor of the corresponding taxa is calculated and used to label
the read."

Everything is vectorized; the LCA fold uses the O(1) batch LCA of
:class:`repro.taxonomy.lca.LcaIndex`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.candidates import Candidates
from repro.core.config import ClassificationParams
from repro.core.database import Database

__all__ = ["Classification", "classify_reads"]

UNCLASSIFIED = 0  # taxon id 0 never exists (NCBI ids start at 1)


@dataclass
class Classification:
    """Per-read classification outcome.

    ``taxon`` holds the assigned taxon id per read (0 when the read
    could not be classified); ``best_target`` the top candidate's
    target id (-1 if none) -- MetaCache's advantage over Kraken2 of
    reporting *locations* is preserved via ``best_window_first/last``.
    """

    taxon: np.ndarray
    best_target: np.ndarray
    best_window_first: np.ndarray
    best_window_last: np.ndarray
    top_score: np.ndarray

    @property
    def classified_mask(self) -> np.ndarray:
        return self.taxon != UNCLASSIFIED

    @property
    def n_classified(self) -> int:
        return int(self.classified_mask.sum())


def classify_reads(
    db: Database,
    candidates: Candidates,
    params: ClassificationParams | None = None,
) -> Classification:
    """Apply the top-hit / LCA rule to a candidate batch."""
    params = params or db.params.classification
    n = candidates.n_reads
    m = candidates.m
    taxon = np.full(n, UNCLASSIFIED, dtype=np.int64)
    best_target = np.full(n, -1, dtype=np.int64)
    bw_first = np.zeros(n, dtype=np.int64)
    bw_last = np.zeros(n, dtype=np.int64)
    top_score = np.zeros(n, dtype=np.int64)
    if n == 0:
        return Classification(taxon, best_target, bw_first, bw_last, top_score)

    target_dense = db.target_dense
    score0 = candidates.score[:, 0]
    valid0 = candidates.valid[:, 0]
    classified = valid0 & (score0 >= params.min_hits)
    if not classified.any():
        return Classification(taxon, best_target, bw_first, bw_last, top_score)

    idx = np.flatnonzero(classified)
    t0 = candidates.target[idx, 0].astype(np.int64)
    best_target[idx] = t0
    bw_first[idx] = candidates.window_first[idx, 0]
    bw_last[idx] = candidates.window_last[idx, 0]
    top_score[idx] = score0[idx]

    # "close to the maximum" candidates trigger the LCA path
    threshold = np.ceil(params.lca_trigger_fraction * score0[idx]).astype(np.int64)
    acc_dense = target_dense[t0]
    ambiguous = np.zeros(idx.size, dtype=bool)
    for col in range(1, m):
        close = (
            candidates.valid[idx, col]
            & (candidates.score[idx, col] >= threshold)
        )
        if not close.any():
            continue
        ambiguous |= close
        sub = np.flatnonzero(close)
        other_dense = target_dense[candidates.target[idx[sub], col].astype(np.int64)]
        acc_dense[sub] = db.lca.lca_batch(acc_dense[sub], other_dense)

    taxa_ids = db.taxonomy.ids[acc_dense]
    taxon[idx] = taxa_ids
    return Classification(taxon, best_target, bw_first, bw_last, top_score)
