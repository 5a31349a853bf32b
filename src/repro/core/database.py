"""The reference database: partitioned minhash k-mer index + taxonomy.

A database maps 32-bit sketch features to packed (target, window)
locations through one :class:`repro.warpcore.MultiBucketHashTable`
per *partition*.  Partitions correspond to GPUs (Section 4.3): a
reference sequence (target) is never split across partitions, the
same feature may appear in several partitions, and each partition
enforces the per-feature location cap independently -- which is why
the partitioned GPU database retains more locations per k-mer than
the single CPU table and gains accuracy (Section 6.5).

Two storage layouts exist, as in the paper (Section 5.1):

- the **build layout** -- the multi-bucket table as filled during
  construction; usable for querying immediately (on-the-fly mode);
- the **condensed layout** -- produced by save/load: all location
  buckets concatenated into one dense array with a single-value table
  mapping features to (offset, length) pointers.

``Database.query_features`` hides the difference from the pipeline.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.core.config import MetaCacheParams
from repro.errors import DatabaseFormatError
from repro.taxonomy.lca import LcaIndex
from repro.taxonomy.lineage import RankedLineages
from repro.taxonomy.tree import Taxonomy
from repro.util.segmented import gather_segments
from repro.warpcore.multi_bucket import MultiBucketHashTable
from repro.warpcore.single_value import SingleValueHashTable

__all__ = [
    "LOCATION_WORD_BITS",
    "location_word_fits",
    "TargetRecord",
    "DatabasePartition",
    "CondensedIndex",
    "Database",
    "FileBackedDatabaseHandle",
]


@dataclass(frozen=True)
class TargetRecord:
    """Metadata of one reference target (a single sequence/scaffold)."""

    target_id: int
    name: str
    taxon_id: int
    length: int
    n_windows: int
    partition_id: int


#: width of an at-rest location word ``local << window_bits | window``
LOCATION_WORD_BITS = 32


def location_word_fits(n_targets: int, max_window: int) -> bool:
    """Whether ``n_targets`` local target ids and window ids up to
    ``max_window`` fit one :data:`LOCATION_WORD_BITS`-bit location word."""
    free = LOCATION_WORD_BITS - int(max_window).bit_length()
    return free >= 0 and max(1, int(n_targets)) <= 1 << free


@dataclass
class CondensedIndex:
    """The load-from-disk layout: dense buckets + pointer table.

    ``locations`` holds every feature's location list contiguously as
    uint32 words ``local << window_bits | window``: ``local`` is the
    target's rank in ``targets`` (the ascending target ids present in
    the partition) and ``window_bits`` the bit length of the largest
    window id.  ``pointers`` maps a feature to its packed
    ``(offset << 24 | length)`` via a :class:`SingleValueHashTable`
    (Section 5.1 uses exactly this structure on the GPU).
    :meth:`retrieve` expands the words back to the uint64
    ``target << 32 | window`` locations every other layer sees.
    """

    OFFSET_SHIFT = np.uint64(24)
    LENGTH_MASK = np.uint64((1 << 24) - 1)

    locations: np.ndarray
    pointers: SingleValueHashTable
    targets: np.ndarray
    window_bits: int
    # targets << 32, the high half of every expanded location
    _target_words: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._target_words = np.asarray(self.targets, dtype=np.uint64) << np.uint64(32)

    @classmethod
    def from_table(cls, table: MultiBucketHashTable) -> "CondensedIndex":
        """Compact a build-layout table into the condensed layout."""
        return cls.from_content(*table.condensed_content())

    @classmethod
    def from_content(
        cls, features: np.ndarray, lengths: np.ndarray, locations: np.ndarray
    ) -> "CondensedIndex":
        """Index canonical content (sorted features, dense ``locations``).

        ``ValueError``: a list of 2^24+ locations, the sentinel feature,
        or content whose targets and windows do not fit one word.
        """
        lengths = lengths.astype(np.uint64)
        if lengths.size and int(lengths.max()) >= (1 << 24):
            raise ValueError("location list too long for condensed pointer")
        packed = ((np.cumsum(lengths) - lengths) << cls.OFFSET_SHIFT) | lengths
        pointers = SingleValueHashTable(capacity_keys=max(16, features.size))
        pointers.insert(features, packed)
        return cls.from_locations(locations, pointers)

    @classmethod
    def from_locations(
        cls, locations: np.ndarray, pointers: SingleValueHashTable
    ) -> "CondensedIndex":
        """Pack uint64 ``target << 32 | window`` locations into words.

        The target map and ``window_bits`` come from the locations
        themselves.  ``ValueError`` when they do not fit one
        :data:`LOCATION_WORD_BITS`-bit word.
        """
        locations = np.asarray(locations, dtype=np.uint64)
        targets, local = np.unique(
            (locations >> np.uint64(32)).astype(np.uint32), return_inverse=True
        )
        window = (locations & np.uint64(0xFFFFFFFF)).astype(np.uint32)
        max_window = int(window.max(initial=0))
        if not location_word_fits(targets.size, max_window):
            raise ValueError(
                f"{targets.size} targets with window ids up to {max_window} "
                f"do not fit a {LOCATION_WORD_BITS}-bit location word"
            )
        window_bits = max_window.bit_length()
        words = local.astype(np.uint32) << np.uint32(window_bits)
        words |= window
        return cls(locations=words, pointers=pointers,
                   targets=targets, window_bits=window_bits)

    def expand(self, words: np.ndarray) -> np.ndarray:
        """uint64 ``target << 32 | window`` of this index's location words.

        ``IndexError`` when a word's local target is outside the map
        (a corrupt partition).
        """
        expanded = self._target_words.take(words >> np.uint32(self.window_bits))
        expanded |= words & np.uint32((1 << self.window_bits) - 1)
        return expanded

    def retrieve(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Same contract as ``MultiBucketHashTable.retrieve``."""
        # a missing feature's pointer word is 0: length 0, nothing gathered
        packed = self.pointers.retrieve(features)[0]
        lengths = (packed & self.LENGTH_MASK).astype(np.int64)
        starts = (packed >> self.OFFSET_SHIFT).astype(np.int64)
        offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        words = gather_segments(self.locations, starts, lengths)
        return self.expand(words), offsets

    @property
    def nbytes(self) -> int:
        return (
            int(self.locations.nbytes)
            + int(self.targets.nbytes)
            + self.pointers.stats().bytes_total
        )


@dataclass
class DatabasePartition:
    """One partition: a hash table in the build or condensed layout."""

    partition_id: int
    table: MultiBucketHashTable | None
    condensed: CondensedIndex | None = None

    def retrieve(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Location lists of a feature batch (``retrieve`` contract).

        A plain ``mmap=True`` open skips the eager content checks, so a
        corrupt location word (or pointer) first shows up here, as an
        index past the end of the target map (or location array): it
        raises :class:`DatabaseFormatError` naming this partition.
        """
        if self.condensed is not None:
            try:
                return self.condensed.retrieve(features)
            except IndexError as exc:
                raise DatabaseFormatError(
                    f"partition {self.partition_id}: corrupt index, a location "
                    f"word or pointer lies outside its array ({exc})"
                ) from exc
        if self.table is None:
            raise RuntimeError("partition has neither build nor condensed layout")
        return self.table.retrieve(features)

    @property
    def nbytes(self) -> int:
        if self.condensed is not None:
            return self.condensed.nbytes
        return self.table.stats().bytes_total if self.table else 0

    def condense(self) -> None:
        """Switch to the condensed layout (drops the build table)."""
        if self.condensed is None:
            self.condensed = CondensedIndex.from_table(self.table)
            self.table = None


class Database:
    """A queryable, partitioned MetaCache database."""

    def __init__(
        self,
        params: MetaCacheParams,
        taxonomy: Taxonomy,
        partitions: list[DatabasePartition],
        targets: list[TargetRecord],
    ) -> None:
        self.params = params
        self.taxonomy = taxonomy
        self.partitions = partitions
        self.targets = targets
        self.lineages = RankedLineages(taxonomy)
        self.lca = LcaIndex(taxonomy)
        #: dense taxonomy index per target id (the classifier's LCA input)
        self.target_dense = np.array(
            [taxonomy.index_of(t.taxon_id) for t in targets], dtype=np.int64
        )
        #: on-disk format this database was loaded from (None = built
        #: in memory); set by :func:`repro.core.io.load_database`.
        self.format_version: int | None = None
        #: directory of the mmap-backed (format v2) index, when this
        #: database was opened with ``mmap=True``.  Worker processes
        #: map these files directly; any other database is spilled to
        #: a private v2 directory first (see :meth:`sharing_handle`).
        self.mmap_path = None
        # explicit lifetime state (see retain/release/close): guards
        # the hot-swap protocol where serving batches pin the old
        # index until the last one drains
        self._lifetime_lock = threading.Lock()
        self._retains = 0
        self._close_pending = False
        self._closed = False

    # ------------------------------------------------------------------ build

    @classmethod
    def build(
        cls,
        references: Iterable[tuple[str, np.ndarray, int]],
        taxonomy: Taxonomy,
        params: MetaCacheParams | None = None,
        n_partitions: int = 1,
        insert_batch_windows: int = 100_000,
    ) -> "Database":
        """Build a database from (name, encoded_sequence, taxon_id) triples.

        A thin wrapper over :class:`repro.core.builder.DatabaseBuilder`
        (the streaming build pipeline): ``references`` is consumed
        lazily -- a generator streams through in bounded memory --
        targets are assigned to partitions online-greedily by
        accumulated length (lightest partition first, per arrival),
        never splitting a target.  Raises
        :class:`repro.errors.BuildError` (a ``KeyError``) for a taxon
        id absent from the taxonomy.
        """
        from repro.core.builder import DatabaseBuilder

        builder = DatabaseBuilder(
            taxonomy,
            params,
            n_partitions=n_partitions,
            insert_batch_windows=insert_batch_windows,
        )
        for name, codes, taxon_id in references:
            builder.add_reference(name, codes, taxon_id)
        return builder.finalize(condense=False)

    # ------------------------------------------------------------------ query

    def query_features(
        self, features: np.ndarray, partition_id: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Location lists for a feature batch against one partition."""
        return self.partitions[partition_id].retrieve(features)

    # -------------------------------------------------------------- metadata

    @property
    def n_targets(self) -> int:
        return len(self.targets)

    @property
    def n_partitions(self) -> int:
        return len(self.partitions)

    @property
    def total_windows(self) -> int:
        return sum(t.n_windows for t in self.targets)

    @property
    def nbytes(self) -> int:
        """Total index bytes across partitions (the 'DB size' column)."""
        return sum(p.nbytes for p in self.partitions)

    def target_taxa(self) -> np.ndarray:
        """taxon id per target id (dense vector for the classifier)."""
        return np.array([t.taxon_id for t in self.targets], dtype=np.int64)

    def condense(self) -> None:
        """Convert all partitions to the condensed query layout."""
        for p in self.partitions:
            p.condense()

    # -------------------------------------------------------------- lifetime

    @property
    def closed(self) -> bool:
        """True once the index content has been dropped/unmapped."""
        return self._closed

    def retain(self) -> "Database":
        """Pin this database's index for the duration of one batch.

        The hot-swap half of the lifetime contract: classification
        paths bracket each batch with ``retain()`` / ``release()``, so
        a concurrent :meth:`close` (issued right after a session swaps
        to a new index) defers the actual unmap until the last
        in-flight batch drains.  Raises ``RuntimeError`` when the
        database is already closed or closing -- a retained reference
        can never observe unmapped memory.
        """
        with self._lifetime_lock:
            if self._closed or self._close_pending:
                raise RuntimeError("cannot retain a closed database")
            self._retains += 1
        return self

    def release(self) -> None:
        """Drop one :meth:`retain` pin; runs a deferred close at zero."""
        run_close = False
        with self._lifetime_lock:
            if self._retains <= 0:
                raise RuntimeError("release() without a matching retain()")
            self._retains -= 1
            if self._retains == 0 and self._close_pending and not self._closed:
                self._closed = True
                run_close = True
        if run_close:
            self._close_now()

    def close(self) -> None:
        """Release the index deterministically (idempotent).

        Drops every partition's arrays and -- for databases opened
        with ``mmap=True`` -- explicitly closes the underlying memory
        maps, returning their file descriptors to the OS *now* rather
        than at garbage collection (repeated open/close cycles must
        not grow the process fd count).  If batches are still pinned
        via :meth:`retain`, the unmap is deferred until the last
        :meth:`release`; new :meth:`retain` calls are refused either
        way.  Callers holding direct references into the index arrays
        (outside the retain protocol) must not use them after close.
        Metadata (params, taxonomy, targets) stays readable.
        """
        with self._lifetime_lock:
            if self._closed:
                return
            self._close_pending = True
            if self._retains > 0:
                return
            self._closed = True
        self._close_now()

    def _close_now(self) -> None:
        """Drop index content and unmap mmap-backed arrays."""

        def strip(p: DatabasePartition) -> "list[object]":
            # collect the backing mmap objects while dropping every
            # array reference, so no dangling view outlives the close
            found: list[object] = []
            if p.condensed is not None:
                cond = p.condensed
                for array in (
                    cond.locations,
                    cond.pointers._keys,
                    cond.pointers._values,
                ):
                    mm = getattr(array, "_mmap", None)
                    if mm is not None:
                        found.append(mm)
                # the table's lookup views are exports of those maps
                cond.pointers.drop_arrays()
            p.condensed = None
            p.table = None
            return found

        mmaps = {id(mm): mm for p in self.partitions for mm in strip(p)}
        for mm in mmaps.values():
            try:
                mm.close()
            except (BufferError, ValueError, OSError):  # pragma: no cover
                pass

    def sharing_handle(self) -> "FileBackedDatabaseHandle":
        """The handle worker processes attach this database by.

        Always file-backed: a database opened from a format-v2
        directory with ``mmap=True`` hands out that directory; any
        other database is first written, once, to a private format-v2
        directory under ``tempfile.mkdtemp()`` (honours ``TMPDIR``)
        which the returned handle owns and removes on
        :meth:`FileBackedDatabaseHandle.unlink`.  Either way workers
        memory-map the same files, so the index exists once in
        physical memory however many attach.  Spilling condenses the
        database in place, exactly like saving it does.
        """
        if self.mmap_path is not None:
            return FileBackedDatabaseHandle(self.mmap_path)
        return FileBackedDatabaseHandle.spill(self)


class FileBackedDatabaseHandle:
    """Zero-copy handle over a saved format-v2 database directory.

    The one way a database is shared with worker processes: the
    pickled state is **just the directory path** (a few dozen bytes),
    and :meth:`attach` memory-maps the directory's aligned ``.npy``
    index files via :func:`repro.core.io.load_database`.  Every
    process attaching the same directory shares one physical copy of
    the index through the operating system's page cache.

    A handle made by :meth:`spill` (the private copy
    :meth:`Database.sharing_handle` writes for databases that are not
    mmap-backed) deletes its directory on :meth:`unlink` -- safe as
    soon as every worker has attached, because their mappings keep
    the pages alive.  Ownership never travels through pickling: only
    the creating process can remove the directory.
    """

    def __init__(self, directory) -> None:
        self.directory = str(directory)
        self._owned = False
        self._database: Database | None = None

    @classmethod
    def spill(cls, db: Database) -> "FileBackedDatabaseHandle":
        """Write ``db`` to a private v2 directory the new handle owns."""
        from repro.core.io import save_database

        directory = tempfile.mkdtemp(prefix="metacache-spill-")
        try:
            save_database(db, directory)
        except BaseException:
            shutil.rmtree(directory, ignore_errors=True)
            raise
        handle = cls(directory)
        handle._owned = True
        return handle

    def __getstate__(self) -> dict:
        """Pickle only the path -- never the mapped database."""
        return {"directory": self.directory}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._owned = False
        self._database = None

    def attach(self) -> Database:
        """Memory-map the database directory (idempotent per handle)."""
        if self._database is None:
            from repro.core.io import load_database

            self._database = load_database(self.directory, mmap=True)
        return self._database

    @property
    def database(self) -> Database:
        """The attached database (attaching on first access)."""
        return self.attach()

    def close(self) -> None:
        """Close the attached database, if any (idempotent).

        The mapped files are this process's own fds, so close releases
        them deterministically via :meth:`Database.close` instead of
        waiting for garbage collection.
        """
        db, self._database = self._database, None
        if db is not None:
            db.close()

    def unlink(self) -> None:
        """Remove an owned spill directory (idempotent; else a no-op).

        Processes already attached keep working (their mappings pin
        the pages); new :meth:`attach` calls fail.
        """
        if self._owned:
            self._owned = False
            shutil.rmtree(self.directory, ignore_errors=True)

    def __enter__(self) -> "FileBackedDatabaseHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        self.unlink()

    def __repr__(self) -> str:
        state = "attached" if self._database is not None else "detached"
        return f"FileBackedDatabaseHandle({self.directory!r}, {state})"
