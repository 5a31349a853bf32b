"""Ranked lineages: per-taxon ancestor at every canonical rank.

The query phase needs "which species / genus does this target's taxon
belong to" lookups for every classified read; precomputing a dense
(n_taxa x n_ranks) matrix turns those into single indexed loads --
this is the host-side analogue of the lineage cache MetaCache builds
before querying (Section 4.2).
"""

from __future__ import annotations

import numpy as np

from repro.taxonomy.ranks import Rank
from repro.taxonomy.tree import Taxonomy

__all__ = ["RankedLineages"]


class RankedLineages:
    """Dense ancestor-at-rank matrix over a taxonomy.

    ``matrix[i, r]`` is the *taxon id* of the ancestor of taxon with
    dense index ``i`` at rank ``r`` (0 where the lineage has no node
    at that rank).  ``resolved_ranks[i]`` is the rank :meth:`rank_resolved`
    names for dense index ``i`` and ``rank_labels[i]`` its lower-case
    name, both computed once for the whole taxonomy.
    """

    NO_TAXON = 0  # NCBI ids are >= 1, so 0 is a safe "absent" marker

    def __init__(self, taxonomy: Taxonomy) -> None:
        self.taxonomy = taxonomy
        n = len(taxonomy)
        n_ranks = int(Rank.ROOT) + 1
        matrix = np.zeros((n, n_ranks), dtype=np.int64)
        order = np.argsort(taxonomy._depths, kind="stable")
        for i in order:  # parents (shallower) always processed first
            p = int(taxonomy.parent_index[i])
            if i != taxonomy.root_index:
                matrix[i] = matrix[p]
            r = int(taxonomy.ranks[i])
            matrix[i, r] = int(taxonomy.ids[i])
        self.matrix = matrix
        # the first rank, most specific first, that holds the taxon itself
        own = matrix == taxonomy.ids[:, None]
        self.resolved_ranks = np.where(
            own.any(axis=1), own.argmax(axis=1), int(Rank.ROOT)
        ).astype(np.int8)
        labels = np.array([rank.name.lower() for rank in Rank], dtype=object)
        self.rank_labels: list[str] = labels[self.resolved_ranks].tolist()

    def ancestor_at_rank(self, taxon_id: int, rank: Rank) -> int | None:
        """Taxon id of the ancestor at ``rank`` (None if absent)."""
        val = int(self.matrix[self.taxonomy.index_of(taxon_id), int(rank)])
        return None if val == self.NO_TAXON else val

    def ancestors_at_rank(self, dense_indices: np.ndarray, rank: Rank) -> np.ndarray:
        """Vectorized ancestor-at-rank over dense indices (0 = absent)."""
        return self.matrix[np.asarray(dense_indices, dtype=np.int64), int(rank)]

    def rank_resolved(self, taxon_id: int) -> Rank:
        """Most specific canonical rank present on the taxon's lineage.

        A read classified to an internal LCA node "resolves" only to
        that node's rank; the accuracy evaluation uses this to decide
        whether a prediction counts at species / genus level.
        """
        return Rank(int(self.resolved_ranks[self.taxonomy.index_of(taxon_id)]))
