"""Streaming database construction: the :class:`DatabaseBuilder`.

The paper's headline contribution is ultra-fast database
*construction*: a two-phase producer/consumer pipeline (Fig. 2) in
which producers parse and sketch reference sequences while a consumer
performs massively parallel batched inserts.  This module is that
pipeline's composable host-side surface:

- :meth:`DatabaseBuilder.add_reference` ingests one already-encoded
  reference; :meth:`DatabaseBuilder.add_fasta` streams reference
  FASTA files through a producer thread.  Either way peak memory is
  bounded by the insert batch, **not** the corpus: sequences are
  sketched inline and dropped as they arrive, and partition
  assignment is *online* greedy (lightest partition first, per
  arrival) so no collect-everything pass exists anywhere.  The
  producer parses while this consumer sketches and inserts; sketching
  is the smaller part of the consumer's work, so a pool of sketch
  processes between the two measured slower than this one thread.
- :meth:`DatabaseBuilder.from_database` re-opens a finished database
  for extension: new targets are appended and the result re-saved,
  with partition loads and per-feature location lists continuing
  exactly where the original build stopped.
- :attr:`DatabaseBuilder.stats` exposes the paper's "lost features"
  accounting (Section 6.5): features sketched, inserted, and dropped
  at ``max_locations_per_feature``.

Every construction path -- one-shot :meth:`Database.build` (now a
thin wrapper over this builder), incremental ``add_reference`` calls,
``add_fasta`` streaming, and extend-then-finalize -- produces
**byte-identical** databases.  That invariant rests on two
properties: partition assignment depends only on arrival order, and
the multi-bucket table stores each key's values in global submission
order regardless of insert batch boundaries or table geometry (a
key's slot chain fills strictly in probe order and slots are never
deleted).  The insert tables grow by rebuild (content read off the
old slot arrays in one scan, re-inserted in chunks), so builds never
need the corpus-wide size precomputation the old one-shot path used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.build import accession_of
from repro.core.config import MetaCacheParams
from repro.core.database import (
    Database,
    DatabasePartition,
    TargetRecord,
    location_word_fits,
)
from repro.errors import BuildError, ConfigError
from repro.hashing.minhash import SKETCH_PAD
from repro.hashing.sketch import sketch_sequence
from repro.taxonomy.tree import Taxonomy
from repro.util.bitops import pack_pairs
from repro.warpcore.multi_bucket import MultiBucketHashTable

__all__ = ["BuildStats", "DatabaseBuilder"]


@dataclass(frozen=True)
class BuildStats:
    """Progress/accounting snapshot of a :class:`DatabaseBuilder`.

    The feature counters implement the paper's "lost features"
    accounting: ``features_sketched`` valid sketch features were
    produced, of which ``features_inserted`` are stored in the index,
    ``features_dropped`` were discarded by the per-feature location
    cap (``max_locations_per_feature``, Section 4.1) or probe-limit
    overflow, and ``features_pending`` sit in the insert buffer
    awaiting the next batched flush.
    """

    n_targets: int = 0
    n_windows: int = 0
    n_bases: int = 0
    features_sketched: int = 0
    features_inserted: int = 0
    features_dropped: int = 0
    features_pending: int = 0

    @property
    def features_kept_fraction(self) -> float:
        """Inserted / sketched (NaN before any feature was sketched)."""
        if self.features_sketched == 0:
            return float("nan")
        return self.features_inserted / self.features_sketched

    def summary(self) -> str:
        """One-line human summary (targets, windows, lost features)."""
        return (
            f"{self.n_targets} targets, {self.n_windows:,} windows, "
            f"{self.n_bases:,} bases; features: "
            f"{self.features_inserted:,} inserted / "
            f"{self.features_dropped:,} dropped"
            + (
                f" / {self.features_pending:,} pending"
                if self.features_pending
                else ""
            )
        )


class _GrowingTable:
    """A :class:`MultiBucketHashTable` that grows by chunked rebuild.

    The one-shot build sized each partition's table from the full
    corpus up front; a streaming build cannot.  This wrapper starts
    small and, when an insert batch would exceed the current value
    capacity, rebuilds into a doubled table by re-inserting the old
    content in sorted-key chunks.  Re-insertion preserves each key's
    value order (which is submission order -- the only property the
    condensed layout and queries observe), so growth is invisible in
    the final database bytes.  The old content is read in one scan
    (8 bytes per stored value + 16 per key, held once the old slot
    arrays are freed); chunking bounds the *insert* transients.
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


class DatabaseBuilder:
    """Incremental, bounded-memory database construction.

    Parameters
    ----------
    taxonomy:
        the taxonomy every reference's taxon id must resolve in.
    params:
        database configuration (defaults to :class:`MetaCacheParams`).
    n_partitions:
        number of database partitions; arriving targets are assigned
        online to the currently lightest partition (by accumulated
        bases), never splitting a target -- the same greedy rule the
        one-shot build applied, made streaming.
    insert_batch_windows:
        windows buffered per partition before a batched insert is
        flushed into the hash table; bounds the builder's transient
        memory.
    on_progress:
        optional callback invoked with a :class:`BuildStats` snapshot
        after each ingested target.

    The builder is single-shot: after :meth:`finalize` returns the
    :class:`Database`, further ``add_*`` calls raise ``RuntimeError``.
    It is also a context manager; leaving the ``with`` block releases
    nothing and does not finalize.
    """

    def __init__(
        self,
        taxonomy: Taxonomy,
        params: MetaCacheParams | None = None,
        *,
        n_partitions: int = 1,
        insert_batch_windows: int = 100_000,
        on_progress: Callable[[BuildStats], None] | None = None,
    ) -> None:
        if n_partitions < 1:
            raise ValueError("n_partitions must be >= 1")
        self.taxonomy = taxonomy
        self.params = params or MetaCacheParams()
        self.n_partitions = n_partitions
        self.insert_batch_windows = insert_batch_windows
        self.on_progress = on_progress

        self._targets: list[TargetRecord] = []
        self._part_load = np.zeros(n_partitions, dtype=np.int64)
        # per partition: what one location word must hold (see _word_with)
        self._part_word = [(0, 0)] * n_partitions
        self._tables: dict[int, _GrowingTable] = {}
        self._pending: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {
            p: [] for p in range(n_partitions)
        }
        self._pending_windows = {p: 0 for p in range(n_partitions)}
        self._pending_features = 0
        self._n_windows = 0
        self._n_bases = 0
        self._features_sketched = 0
        self._finalized = False

    # ------------------------------------------------------------ constructors

    @classmethod
    def from_database(
        cls,
        db: Database,
        *,
        insert_batch_windows: int = 100_000,
        on_progress: Callable[[BuildStats], None] | None = None,
    ) -> "DatabaseBuilder":
        """Open a finished database for extension.

        The builder copies ``db``'s parameters, taxonomy, targets and
        partition loads, and re-materializes each partition's insert
        table by re-inserting its canonical content in sorted-key
        chunks, preserving every feature's location order.  Extending
        with new references then behaves exactly as if the original
        build had continued -- a database built from ``A`` then
        extended with ``B`` is byte-identical to one built from
        ``A + B`` in one shot.  Re-materializing costs O(index) time
        and memory; what extension never repeats is parsing and
        sketching the existing references (the dominant build cost).

        The source ``db`` is not touched -- it keeps serving queries,
        and a build that fails mid-extension leaves it fully intact.
        Returns the new builder.
        """
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
            # historical accounting: everything the copied content
            # stores counts as already sketched; drops that happened
            # before a save/condense are not recoverable
            builder._features_sketched += grown.table.stored_values
        return builder

    # ------------------------------------------------------------- ingestion

    def add_reference(self, name: str, codes: np.ndarray, taxon_id: int) -> None:
        """Ingest one reference: sketch, assign a partition, insert.

        Parameters
        ----------
        name:
            target name (typically the FASTA header).
        codes:
            the encoded uint8 sequence; not retained after sketching.
        taxon_id:
            the reference's taxon; must resolve in the taxonomy.

        Raises
        ------
        BuildError
            when ``taxon_id`` is not in the taxonomy (named in the
            message).
        ConfigError
            when the target would leave its partition with more
            targets and windows than a 32-bit location word holds;
            the message names the ``n_partitions`` that fits the
            references so far.  The builder is left unchanged.
        RuntimeError
            when the builder was already finalized.
        """
        self._check_open()
        if taxon_id not in self.taxonomy:
            raise BuildError(
                f"taxon {taxon_id} of target {name!r} not in taxonomy",
                header=name,
                taxon_id=taxon_id,
            )
        sketches = sketch_sequence(codes, self.params.sketch)
        n_bases = int(codes.size)
        p = int(np.argmin(self._part_load))
        t = len(self._targets)
        n_windows = sketches.shape[0]
        word = _word_with(self._part_word[p], n_windows)
        if not location_word_fits(*word):
            self._refuse_word(p, word, name, n_bases, n_windows)
        self._part_load[p] += n_bases
        self._part_word[p] = word
        self._targets.append(
            TargetRecord(
                target_id=t,
                name=name,
                taxon_id=taxon_id,
                length=n_bases,
                n_windows=n_windows,
                partition_id=p,
            )
        )
        self._n_windows += n_windows
        self._n_bases += n_bases
        if n_windows:
            window_ids = np.repeat(
                np.arange(n_windows, dtype=np.uint64), sketches.shape[1]
            )
            feats = sketches.reshape(-1)
            valid = feats != SKETCH_PAD
            locs = pack_pairs(
                np.full(valid.sum(), t, dtype=np.uint64), window_ids[valid]
            )
            feats = feats[valid]
            self._features_sketched += feats.size
            self._pending_features += feats.size
            self._pending[p].append((feats, locs))
            self._pending_windows[p] += n_windows
            if self._pending_windows[p] >= self.insert_batch_windows:
                self._flush(p)
        if self.on_progress is not None:
            self.on_progress(self.stats)

    def add_fasta(
        self,
        paths: Sequence,
        accession_to_taxon: Mapping[str, int],
        *,
        batch_size: int = 32,
    ) -> None:
        """Stream reference FASTA files into the builder.

        One producer thread parses and encodes the files (in the
        given order) into a bounded queue while this thread -- the
        consumer -- sketches and inserts, so at no point does more
        than a queue's worth of encoded sequences exist in memory.
        Headers resolve to taxa through ``accession_to_taxon`` (the
        role NCBI's ``accession2taxid`` files play); the full header
        becomes the target name.

        Raises
        ------
        BuildError
            when a header's accession has no mapping entry (file and
            header are named in the message) -- silently dropping
            references would corrupt every downstream accuracy
            number.  References ingested before the failure remain in
            the builder.
        RuntimeError
            when the builder was already finalized.
        """
        from repro.pipeline.producer import fasta_producer
        from repro.pipeline.queues import ClosableQueue
        from repro.pipeline.scheduler import run_producer_consumer

        self._check_open()
        paths = list(paths)

        def consume(q: ClosableQueue):
            failure: BaseException | None = None
            for batch in q:
                if failure is not None:
                    continue  # drain so the bounded-queue producer can exit
                for header, codes, seq_id in zip(
                    batch.headers, batch.sequences, batch.ids
                ):
                    try:
                        acc = accession_of(header)
                        if acc not in accession_to_taxon:
                            path = paths[seq_id // _FILE_STRIDE]
                            raise BuildError(
                                f"{path}: accession {acc!r} of header "
                                f"{header!r} not in accession_to_taxon "
                                "mapping",
                                file=str(path),
                                header=header,
                            )
                        self.add_reference(
                            header, codes, accession_to_taxon[acc]
                        )
                    except BaseException as exc:  # noqa: BLE001 - re-raised
                        failure = exc
                        break
            if failure is not None:
                raise failure

        # One producer thread walking the files in order: arrival
        # order is file order then in-file order, identical to the
        # one-shot path.  Each per-file fasta_producer call closes the
        # registration it is handed, so the walk registers one per
        # file and closes its own outer registration at the end.
        def produce(q: ClosableQueue):
            try:
                for i, path in enumerate(paths):
                    q.register_producer()
                    fasta_producer(
                        [path],
                        q,
                        batch_size=batch_size,
                        id_offset=i * _FILE_STRIDE,
                    )
            finally:
                q.close_producer()

        run_producer_consumer(producers=[produce], consumers=[consume])

    # --------------------------------------------------------------- internals

    def _refuse_word(
        self, p: int, word: tuple[int, int], name: str, n_bases: int, n_windows: int
    ) -> None:
        """Raise the ``ConfigError`` for a target that overflows partition
        ``p``'s location word, naming the smallest ``n_partitions`` that
        fits the references so far."""
        lengths = [tr.length for tr in self._targets] + [n_bases]
        windows = [tr.n_windows for tr in self._targets] + [n_windows]
        if not location_word_fits(1, n_windows - 1):
            advice = "no partitioning fits a target with that many windows"
        else:
            # terminates: one partition per target always fits
            n = self.n_partitions + 1
            while not _greedy_fits(lengths, windows, n):
                n += 1
            advice = (
                f"build with n_partitions={n} (the smallest that fits the "
                "references added so far)"
            )
        raise ConfigError(
            f"target {name!r} would put {word[0]} targets with window ids up "
            f"to {word[1]} into partition {p}, more than a location word "
            f"holds at n_partitions={self.n_partitions}; {advice}"
        )

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

    def _check_open(self) -> None:
        if self._finalized:
            raise RuntimeError("builder already finalized")

    # ---------------------------------------------------------------- results

    @property
    def stats(self) -> BuildStats:
        """Current accounting snapshot (cheap; no flush is forced)."""
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
        """Flush and assemble the :class:`Database`.

        Every partition's pending buffer is flushed.  ``condense=True``
        (default) converts the result to the condensed query layout --
        what saved/loaded databases use; pass ``condense=False`` to
        keep the build layout (on-the-fly mode, insertable by a future
        ``from_database``).

        Returns the finished database.  The builder is closed
        afterwards: further ``add_*``/``finalize`` calls raise
        ``RuntimeError``.
        """
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
            db.condense()
        return db

    # ------------------------------------------------------------- lifecycle

    def __enter__(self) -> "DatabaseBuilder":
        """Enter a ``with`` block; returns the builder itself."""
        return self

    def __exit__(self, *exc) -> None:
        """Leave a ``with`` block; the builder holds nothing to release."""

    def __repr__(self) -> str:
        """Short state summary for interactive sessions."""
        state = "finalized" if self._finalized else "open"
        return (
            f"DatabaseBuilder({len(self._targets)} targets, "
            f"{self.n_partitions} partition(s), {state})"
        )


def _word_with(word: tuple[int, int], n_windows: int) -> tuple[int, int]:
    """A partition's ``(targets with windows, largest window id)`` -- what
    its location word must hold (``CondensedIndex``) -- once a target of
    ``n_windows`` windows joins it.  Bounds the condensed content from
    above, so a build whose partitions all fit always condenses."""
    if not n_windows:
        return word
    return word[0] + 1, max(word[1], n_windows - 1)


def _greedy_fits(lengths: list[int], windows: list[int], n_partitions: int) -> bool:
    """Whether the builder's greedy assignment over ``n_partitions``
    keeps every partition's location word within its width."""
    load = np.zeros(n_partitions, dtype=np.int64)
    words = [(0, 0)] * n_partitions
    for length, n_windows in zip(lengths, windows):
        p = int(np.argmin(load))
        load[p] += length
        words[p] = _word_with(words[p], n_windows)
        if not location_word_fits(*words[p]):
            return False
    return True


#: disjoint per-file id ranges keep multi-file arrival order
#: deterministic (file order, then in-file order)
_FILE_STRIDE = 1 << 40
