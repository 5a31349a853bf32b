"""MetaCache CPU mode: the serialized single-table configuration.

Two properties distinguish the CPU version from the GPU version in
the paper, and both are reproduced here:

1. **Serialized hash-table mutation** (Section 4.1): the CPU build
   runs a producer-consumer pipeline, but "the CPU version of
   MetaCache is limited to a single thread operating the hash table".
   This implementation inserts feature-by-feature through a Python
   dict -- the sequential mutation path -- so measured build wall
   clock contrasts structurally (not just constant-factor) with the
   batched vectorized GPU insert, mirroring Table 3's asymmetry.
2. **One partition with the global 254-location cap** (Section 6.5):
   k-mers occurring in many references lose locations beyond the cap,
   costing accuracy relative to the partitioned GPU database where
   the cap applies per partition.  Buckets keep the *first* 254
   locations in insertion order, like the CPU bucket growth scheme.

Queries reuse the shared candidate/classification code so that the
CPU-vs-GPU accuracy comparison isolates exactly the database-content
difference, as in the paper.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.candidates import Candidates, generate_top_candidates
from repro.core.classify import Classification, classify_reads
from repro.core.config import MetaCacheParams
from repro.core.database import Database, DatabasePartition, TargetRecord
from repro.core.query import QueryResult
from repro.hashing.minhash import SKETCH_PAD
from repro.hashing.sketch import sketch_reads, sketch_sequence
from repro.taxonomy.tree import Taxonomy
from repro.util.bitops import pack_pairs

__all__ = ["MetaCacheCpu"]


class _DictTable:
    """The CPU hash table: feature -> capped location bucket.

    A Python dict of lists stands in for the open-addressing table
    with dynamically growing buckets; semantics (insertion order,
    cap, sorted-by-construction location lists) match Section 4.1.
    """

    def __init__(self, max_locations_per_key: int) -> None:
        self.cap = max_locations_per_key
        self.buckets: dict[int, list[int]] = {}
        self.stored = 0
        self.dropped = 0

    def insert_one(self, key: int, value: int) -> None:
        bucket = self.buckets.get(key)
        if bucket is None:
            bucket = []
            self.buckets[key] = bucket
        if len(bucket) < self.cap:
            bucket.append(value)
            self.stored += 1
        else:
            self.dropped += 1

    def retrieve(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Same (values, offsets) contract as the warpcore tables."""
        chunks: list[list[int]] = []
        lengths = np.zeros(keys.size, dtype=np.int64)
        for i, k in enumerate(np.asarray(keys, dtype=np.uint64)):
            bucket = self.buckets.get(int(k))
            if bucket:
                lengths[i] = len(bucket)
                chunks.append(bucket)
        offsets = np.zeros(keys.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        values = (
            np.array([v for c in chunks for v in c], dtype=np.uint64)
            if chunks
            else np.zeros(0, dtype=np.uint64)
        )
        return values, offsets

    @property
    def nbytes(self) -> int:
        """Approximate host bytes (8B/location + 16B/bucket header)."""
        return 8 * self.stored + 16 * len(self.buckets)

    def stats(self):
        """TableStats view so the Database adapter's accounting works."""
        from repro.warpcore.base import TableStats

        return TableStats(
            capacity_slots=len(self.buckets),
            occupied_slots=len(self.buckets),
            stored_values=self.stored,
            dropped_values=self.dropped,
            bytes_keys=8 * len(self.buckets),
            bytes_values=8 * self.stored,
            bytes_metadata=8 * len(self.buckets),
        )


class MetaCacheCpu:
    """CPU-mode MetaCache built around the serialized dict table."""

    def __init__(self, taxonomy: Taxonomy, params: MetaCacheParams | None = None) -> None:
        self.taxonomy = taxonomy
        self.params = params or MetaCacheParams()
        self.table = _DictTable(self.params.max_locations_per_feature)
        self.targets: list[TargetRecord] = []
        self._db: Database | None = None

    # ------------------------------------------------------------------ build

    def add_reference(self, name: str, codes: np.ndarray, taxon_id: int) -> None:
        """Sketch one reference and insert serially (the consumer thread)."""
        if taxon_id not in self.taxonomy:
            raise KeyError(f"taxon {taxon_id} not in taxonomy")
        t = len(self.targets)
        sketches = sketch_sequence(codes, self.params.sketch)
        n_windows = sketches.shape[0]
        for w in range(n_windows):
            row = sketches[w]
            loc = int(
                pack_pairs(
                    np.array([t], dtype=np.uint64), np.array([w], dtype=np.uint64)
                )[0]
            )
            for feature in row:
                if feature == SKETCH_PAD:
                    continue
                self.table.insert_one(int(feature), loc)
        self.targets.append(
            TargetRecord(
                target_id=t,
                name=name,
                taxon_id=taxon_id,
                length=int(codes.size),
                n_windows=n_windows,
                partition_id=0,
            )
        )
        self._db = None  # invalidate the query adapter (its per-target vectors)

    def build(self, references: Iterable[tuple[str, np.ndarray, int]]) -> "MetaCacheCpu":
        for name, codes, taxon_id in references:
            self.add_reference(name, codes, taxon_id)
        return self

    @property
    def nbytes(self) -> int:
        return self.table.nbytes

    # ------------------------------------------------------------------ query

    def _as_database(self) -> Database:
        """Adapter: expose the dict table through the Database API.

        The shared query pipeline only needs ``retrieve``; a partition
        wrapping the dict table provides it, so candidates and
        classification run through exactly the same code as the GPU
        path (isolating the content difference, not code differences).
        """
        if self._db is None:
            part = DatabasePartition(partition_id=0, table=self.table)  # type: ignore[arg-type]
            self._db = Database(
                params=self.params,
                taxonomy=self.taxonomy,
                partitions=[part],
                targets=self.targets,
            )
        return self._db

    def query(
        self,
        sequences: list[np.ndarray],
        mates: list[np.ndarray] | None = None,
    ) -> QueryResult:
        """Read-at-a-time query, the CPU processing model.

        Section 4.2's CPU query handles one read (pair) per consumer
        iteration: split into windows, sketch, look each feature up,
        merge the sorted location lists, scan for candidates.  This
        loop reproduces that schedule read by read -- the structural
        contrast to the batched GPU pipeline that Table 4 measures --
        while producing bit-identical candidates (the per-read math is
        the same code the batch path uses on one-read segments).
        """
        params = self.params
        m = params.classification.max_candidates
        n = len(sequences)
        if mates is not None and len(mates) != n:
            raise ValueError("mates list must match sequences list")
        out = Candidates(
            target=np.zeros((n, m), dtype=np.uint32),
            window_first=np.zeros((n, m), dtype=np.uint32),
            window_last=np.zeros((n, m), dtype=np.uint32),
            score=np.zeros((n, m), dtype=np.int64),
            valid=np.zeros((n, m), dtype=bool),
        )
        total_locations = 0
        for i in range(n):
            seqs = [sequences[i]] if mates is None else [sequences[i], mates[i]]
            sketches, _ = sketch_reads(seqs, params.sketch)
            feats = sketches.reshape(-1)
            feats = feats[feats != SKETCH_PAD]
            locations, _ = self.table.retrieve(feats)
            total_locations += locations.size
            if locations.size == 0:
                continue
            locations.sort()  # merge of per-feature sorted lists
            total_len = sum(s.size for s in seqs)
            sws = params.sliding_window_size(total_len)
            cand = generate_top_candidates(
                locations, np.array([0, locations.size]), sws, m
            )
            out.target[i] = cand.target[0]
            out.window_first[i] = cand.window_first[0]
            out.window_last[i] = cand.window_last[0]
            out.score[i] = cand.score[0]
            out.valid[i] = cand.valid[0]
        lengths = np.array(
            [
                s.size + (mates[i].size if mates is not None else 0)
                for i, s in enumerate(sequences)
            ],
            dtype=np.int64,
        )
        return QueryResult(
            candidates=out,
            n_reads=n,
            read_lengths=lengths,
            total_locations=total_locations,
        )

    def classify(
        self,
        sequences: list[np.ndarray],
        mates: list[np.ndarray] | None = None,
    ) -> Classification:
        result = self.query(sequences, mates=mates)
        return classify_reads(self._as_database(), result.candidates)
