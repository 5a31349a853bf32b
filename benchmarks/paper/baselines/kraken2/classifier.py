"""Kraken2-style classification: hit groups + root-to-leaf scoring.

For each read, every l-mer's minimizer is looked up in the LCA table,
producing hit counts on taxonomy nodes.  The read is assigned the
leaf-most hit taxon maximizing the *root-to-leaf path score* (sum of
hits on the path from the root to that taxon); with a confidence
threshold, the assignment walks up the tree until the path score
covers the required fraction of all classified k-mers.

The scoring is vectorized over the whole read batch: hits expand to
their ranked lineages, per-(read, ancestor) counts aggregate with one
sort, and path sums resolve through searchsorted lookups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.classify import UNCLASSIFIED, Classification
from repro.taxonomy.lineage import RankedLineages
from repro.taxonomy.tree import Taxonomy

from paper.baselines.kraken2.minimizer import extract_minimizers
from paper.baselines.kraken2.table import MinimizerLcaTable

__all__ = ["Kraken2Params", "Kraken2Classifier"]


@dataclass(frozen=True)
class Kraken2Params:
    """Kraken2 knobs (paper-scale defaults l=35, m=31; tests shrink).

    ``m`` is the minimizer length in bases, ``window`` the number of
    consecutive m-mers per l-mer (l = m + window - 1).
    """

    m: int = 31
    window: int = 5
    confidence: float = 0.0
    min_hit_groups: int = 2

    @classmethod
    def small(cls) -> "Kraken2Params":
        """Shrunk to match MetaCacheParams.small()'s k=8 regime."""
        return cls(m=12, window=4)


class Kraken2Classifier:
    """Build-once, query-many Kraken2-style classifier."""

    def __init__(self, taxonomy: Taxonomy, params: Kraken2Params | None = None) -> None:
        self.taxonomy = taxonomy
        self.params = params or Kraken2Params()
        self.table = MinimizerLcaTable(taxonomy)
        self.lineages = RankedLineages(taxonomy)

    # ------------------------------------------------------------------ build

    def add_reference(self, codes: np.ndarray, taxon_id: int) -> None:
        mins = extract_minimizers(codes, self.params.m, self.params.window)
        self.table.add_reference(mins, taxon_id)

    def build(self, references: list[tuple[str, np.ndarray, int]]) -> "Kraken2Classifier":
        for _, codes, taxon_id in references:
            self.add_reference(codes, taxon_id)
        self.table.finalize()
        return self

    @property
    def nbytes(self) -> int:
        return self.table.nbytes

    # ------------------------------------------------------------------ query

    def classify(
        self,
        sequences: list[np.ndarray],
        mates: list[np.ndarray] | None = None,
    ) -> Classification:
        """Classify a read batch; returns the shared Classification type.

        Kraken2 reports no mapping locations, so ``best_target`` is -1
        and the window range zero for every read -- the structural
        limitation Section 6.2 points out.
        """
        n = len(sequences)
        read_hit_taxa: list[np.ndarray] = []
        read_ids: list[np.ndarray] = []
        kmer_totals = np.zeros(n, dtype=np.int64)
        for i in range(n):
            mins = extract_minimizers(
                sequences[i], self.params.m, self.params.window, distinct_runs=False
            )
            if mates is not None:
                mm = extract_minimizers(
                    mates[i], self.params.m, self.params.window, distinct_runs=False
                )
                mins = np.concatenate([mins, mm])
            kmer_totals[i] = mins.size
            dense = self.table.lookup_dense(mins)
            dense = dense[dense >= 0]
            if dense.size:
                read_hit_taxa.append(dense)
                read_ids.append(np.full(dense.size, i, dtype=np.int64))
        taxon = np.full(n, UNCLASSIFIED, dtype=np.int64)
        cls = Classification(
            taxon=taxon,
            best_target=np.full(n, -1, dtype=np.int64),
            best_window_first=np.zeros(n, dtype=np.int64),
            best_window_last=np.zeros(n, dtype=np.int64),
            top_score=np.zeros(n, dtype=np.int64),
        )
        if not read_hit_taxa:
            return cls
        hits_read = np.concatenate(read_ids)
        hits_taxon = np.concatenate(read_hit_taxa)

        # aggregate k-mer hits per (read, taxon)
        n_taxa = len(self.taxonomy)
        key = hits_read * n_taxa + hits_taxon
        uniq_key, counts = np.unique(key, return_counts=True)
        u_read = uniq_key // n_taxa
        u_taxon = uniq_key % n_taxa

        # hit-group filter (Kraken2's minimum-hit-groups heuristic,
        # approximated as total hit k-mers per read); integer
        # scatter-add, not bincount(weights=) -- the float64 weighted
        # path loses exactness past 2^53
        groups_per_read = np.zeros(n, dtype=np.int64)
        np.add.at(groups_per_read, u_read, counts)

        # path score of each candidate = sum over its ranked lineage of
        # the (read, ancestor) hit counts; lineage gives taxon *ids*,
        # so map ids -> dense indices once
        id_to_dense = {int(t): i for i, t in enumerate(self.taxonomy.ids)}
        lineage_ids = self.lineages.matrix[u_taxon]  # (n_cand, n_ranks)
        path_score = np.zeros(u_taxon.size, dtype=np.int64)
        sorted_keys = uniq_key  # already sorted by np.unique
        for r in range(lineage_ids.shape[1]):
            anc_ids = lineage_ids[:, r]
            present = anc_ids != RankedLineages.NO_TAXON
            if not present.any():
                continue
            anc_dense = np.array(
                [id_to_dense[int(t)] for t in anc_ids[present]], dtype=np.int64
            )
            anc_key = u_read[present] * n_taxa + anc_dense
            pos = np.searchsorted(sorted_keys, anc_key)
            ok = pos < sorted_keys.size
            match = np.zeros(anc_key.size, dtype=bool)
            match[ok] = sorted_keys[pos[ok]] == anc_key[ok]
            add = np.zeros(anc_key.size, dtype=np.int64)
            add[match] = counts[pos[match]]
            path_score[present] += add

        # best candidate per read: max path score, leaf-most, then
        # smallest dense index for determinism
        depth = self.taxonomy.depths[u_taxon]
        order = np.lexsort((u_taxon, -depth, -path_score, u_read))
        first = np.ones(order.size, dtype=bool)
        first[1:] = u_read[order][1:] != u_read[order][:-1]
        best = order[first]
        b_read = u_read[best]
        b_taxon = u_taxon[best].copy()
        b_score = path_score[best]

        # confidence threshold: the winning path score must cover the
        # required fraction of the read's k-mers; failing reads fall
        # back to the root, i.e. unannotated (simplified walk-up)
        if self.params.confidence > 0.0:
            required = np.ceil(
                self.params.confidence * kmer_totals[b_read]
            ).astype(np.int64)
            weak = b_score < required
            b_taxon[weak] = np.array(
                [self.taxonomy.root_index] * int(weak.sum()), dtype=np.int64
            )

        ok_groups = groups_per_read[b_read] >= self.params.min_hit_groups
        assign = b_read[ok_groups]
        taxon[assign] = self.taxonomy.ids[b_taxon[ok_groups]]
        cls.top_score[assign] = b_score[ok_groups]
        return cls
