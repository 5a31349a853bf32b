"""The build by a growing hash table, kept as the oracle.

Until the builder sorted its batches into runs
(``repro.core.builder.DatabaseBuilder._flush``), every flushed batch
was inserted into one :class:`MultiBucketHashTable` per partition,
which grew by chunked rebuild, and ``from_database`` re-inserted the
saved content into fresh tables.  :class:`TableDatabaseBuilder` is that
builder: ``_GrowingTable`` and the overridden methods below are the
old code moved out of ``src/`` verbatim, except that ``finalize``
condenses partition by partition (``Database.condense`` is gone).
Sketching and partition assignment are inherited, as they did not
change.  FASTA files are ingested as ``add_fasta`` ingested them before
it sketched blocks of references: record by record through the
per-line parser and ``add_reference``
(``tests/reference/fasta_per_line.py``).
``tests/test_build_equivalence.py`` asserts that
both builders save byte-identical directories and report the same
:class:`BuildStats` once finalized.

The table also drops a value when its key runs out of probe rounds;
the sorted build never does.  Nothing the tests build comes near that
limit.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.builder import BuildStats, DatabaseBuilder, _word_with
from repro.core.config import MetaCacheParams
from repro.core.database import Database, DatabasePartition
from repro.warpcore.multi_bucket import MultiBucketHashTable

from reference.fasta_per_line import per_record_fasta_ingest

__all__ = ["TableDatabaseBuilder"]


class _GrowingTable:
    """A :class:`MultiBucketHashTable` that grows by chunked rebuild.

    The one-shot build sized each partition's table from the full
    corpus up front; a streaming build cannot.  This wrapper starts
    small and, when an insert batch would exceed the current value
    capacity, rebuilds into a doubled table by re-inserting the old
    content in sorted-key chunks.  Re-insertion preserves each key's
    value order (which is submission order -- the only property the
    condensed layout and queries observe), so growth is invisible in
    the final database bytes.
    """

    #: keys re-inserted per rebuild chunk (bounds insert transients)
    REBUILD_CHUNK_KEYS = 1 << 15

    def __init__(self, params: MetaCacheParams, initial_capacity: int) -> None:
        self.params = params
        self.capacity_values = max(256, int(initial_capacity))
        self.table = self._allocate(self.capacity_values)

    def _allocate(self, capacity_values: int) -> MultiBucketHashTable:
        p = self.params
        return MultiBucketHashTable(
            capacity_values=capacity_values,
            bucket_size=p.bucket_size,
            group_size=p.group_size,
            max_load_factor=p.max_load_factor,
            max_locations_per_key=p.max_locations_per_feature,
        )

    def insert(self, feats: np.ndarray, locs: np.ndarray) -> None:
        """Insert a feature/location batch, growing first if needed."""
        needed = self.table.stored_values + feats.size
        if needed > self.capacity_values:
            new_capacity = self.capacity_values
            while needed > new_capacity:
                new_capacity *= 2
            self._grow(new_capacity)
        self.table.insert(feats, locs)

    def _grow(self, new_capacity: int) -> None:
        dropped_before = self.table.dropped_values
        content = self.table.condensed_content()
        self.capacity_values = new_capacity
        self.table = self._allocate(new_capacity)  # frees the old slot arrays
        self.reinsert(*content)
        # stored values always fit under the (unchanged) per-key cap,
        # so a rebuild can never drop; carry the historical drop count
        self.table._dropped += dropped_before

    def reinsert(
        self, features: np.ndarray, lengths: np.ndarray, locations: np.ndarray
    ) -> None:
        """Insert canonical content in sorted-key chunks, value order kept."""
        offsets = np.zeros(features.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        for start in range(0, features.size, self.REBUILD_CHUNK_KEYS):
            stop = min(features.size, start + self.REBUILD_CHUNK_KEYS)
            feats = np.repeat(features[start:stop], lengths[start:stop])
            self.insert(feats, locations[offsets[start] : offsets[stop]])


class TableDatabaseBuilder(DatabaseBuilder):
    """:class:`DatabaseBuilder` as it was when it filled hash tables."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._tables: dict[int, _GrowingTable] = {}

    @classmethod
    def from_database(
        cls,
        db: Database,
        *,
        insert_batch_windows: int = 100_000,
        on_progress: Callable[[BuildStats], None] | None = None,
    ) -> "TableDatabaseBuilder":
        from repro.core.io import _condensed_content

        builder = cls(
            db.taxonomy,
            db.params,
            n_partitions=db.n_partitions,
            insert_batch_windows=insert_batch_windows,
            on_progress=on_progress,
        )
        builder._targets = list(db.targets)
        for t in db.targets:
            p = t.partition_id
            builder._part_load[p] += t.length
            builder._part_word[p] = _word_with(builder._part_word[p], t.n_windows)
            builder._n_windows += t.n_windows
            builder._n_bases += t.length
        for part in db.partitions:
            features, lengths, locations = _condensed_content(part)
            grown = _GrowingTable(
                builder.params, initial_capacity=max(256, locations.size)
            )
            grown.reinsert(features, lengths, locations)
            builder._tables[part.partition_id] = grown
            builder._features_sketched += grown.table.stored_values
        return builder

    def add_fasta(
        self, paths: Sequence, accession_to_taxon: Mapping[str, int]
    ) -> None:
        self._check_open()
        per_record_fasta_ingest(self, paths, accession_to_taxon)

    def _flush(self, p: int) -> None:
        """Batched insert of partition ``p``'s buffered pairs."""
        if not self._pending[p]:
            return
        feats = np.concatenate([f for f, _ in self._pending[p]])
        locs = np.concatenate([l for _, l in self._pending[p]])
        self._pending_features -= feats.size
        self._pending[p].clear()
        self._pending_windows[p] = 0
        table = self._tables.get(p)
        if table is None:
            table = _GrowingTable(
                self.params, initial_capacity=max(256, feats.size)
            )
            self._tables[p] = table
        table.insert(feats, locs)

    @property
    def stats(self) -> BuildStats:
        inserted = sum(t.table.stored_values for t in self._tables.values())
        dropped = sum(t.table.dropped_values for t in self._tables.values())
        return BuildStats(
            n_targets=len(self._targets),
            n_windows=self._n_windows,
            n_bases=self._n_bases,
            features_sketched=self._features_sketched,
            features_inserted=inserted,
            features_dropped=dropped,
            features_pending=self._pending_features,
        )

    def finalize(self, condense: bool = True) -> Database:
        self._check_open()
        for p in range(self.n_partitions):
            self._flush(p)
        self._finalized = True

        partitions: list[DatabasePartition] = []
        for p in range(self.n_partitions):
            grown = self._tables.get(p)
            if grown is None:  # partition never received a feature
                grown = _GrowingTable(self.params, initial_capacity=256)
                self._tables[p] = grown
            partitions.append(DatabasePartition(partition_id=p, table=grown.table))
        db = Database(
            params=self.params,
            taxonomy=self.taxonomy,
            partitions=partitions,
            targets=self._targets,
        )
        if condense:
            for part in db.partitions:
                part.condense()
        return db
