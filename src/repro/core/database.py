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
  buckets concatenated into one dense array, with the sorted features
  and the running sums of their list lengths pointing into it (the
  paper's GPU version uses a single-value hash table there).

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

__all__ = [
    "LOCATION_WORD_BITS",
    "location_word_fits",
    "NARROW_OFFSETS_LIMIT",
    "offsets_dtype",
    "SortedPointers",
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


#: a partition holding fewer locations than this stores ``<u4``
#: offsets, any other ``<u8`` (:func:`offsets_dtype`)
NARROW_OFFSETS_LIMIT = 1 << 32
# the largest storable feature: build tables clamp the sentinel onto it
_LAST_FEATURE = np.uint32(0xFFFFFFFE)


def offsets_dtype(n_locations: int) -> np.dtype:
    """The offsets dtype of a partition holding ``n_locations`` locations."""
    return np.dtype("<u4" if n_locations < NARROW_OFFSETS_LIMIT else "<u8")


class SortedPointers:
    """Feature -> location-list pointer, as sorted keys plus running sums.

    ``features`` is strictly ascending ``<u4`` (the sentinel
    ``0xFFFFFFFF`` never among them); the list of ``features[row]`` is
    ``offsets[row]:offsets[row + 1]`` of the partition's dense location
    array, so ``offsets`` (``n + 1`` entries, ``<u4`` or ``<u8``) starts
    at 0 and ends at the location count.  The arrays are kept as handed
    in -- for a memory-mapped index the ``np.memmap`` objects that
    ``Database.close`` unmaps -- and lookups read base-``ndarray`` views
    of them, taken once, because every index into an ``np.memmap`` pays
    a Python-level ``__getitem__`` and ``__array_finalize__``.
    """

    def __init__(self, features: np.ndarray, offsets: np.ndarray) -> None:
        self.features = features
        self.offsets = offsets
        self._features = features.view(np.ndarray)
        self._offsets = offsets.view(np.ndarray)

    @classmethod
    def from_lengths(
        cls, features: np.ndarray, lengths: np.ndarray
    ) -> "SortedPointers":
        """Pointers of ascending ``features`` with lists of ``lengths``.

        ``ValueError``: features that are not strictly ascending, the
        sentinel (or a feature past 32 bits), or a negative length.
        """
        features = np.asarray(features)
        lengths = np.asarray(lengths, dtype=np.int64)
        if features.size and not (
            0 <= int(features.min()) and int(features.max()) <= _LAST_FEATURE
        ):
            raise ValueError("a feature is the sentinel 0xFFFFFFFF or past 32 bits")
        if lengths.size and int(lengths.min()) < 0:
            raise ValueError("negative location-list length")
        offsets = np.zeros(lengths.size + 1, dtype=offsets_dtype(int(lengths.sum())))
        offsets[1:] = np.cumsum(lengths)
        pointers = cls(features.astype("<u4"), offsets)
        pointers.validate(int(offsets[-1]))  # what is left: the order
        return pointers

    def __len__(self) -> int:
        return int(self.features.size)

    @property
    def nbytes(self) -> int:
        return int(self.features.nbytes) + int(self.offsets.nbytes)

    def validate(self, n_locations: int) -> None:
        """Check the whole arrays; ``ValueError`` names the first fault."""
        keys, offsets = self._features, self._offsets
        if np.any(keys[1:] <= keys[:-1]):
            raise ValueError("features are not strictly ascending")
        if keys.size and keys[-1] > _LAST_FEATURE:
            raise ValueError("the sentinel 0xFFFFFFFF is stored as a feature")
        if offsets.size != keys.size + 1 or int(offsets[0]) != 0:
            raise ValueError("offsets do not start at 0")
        if np.any(offsets[1:] < offsets[:-1]):
            raise ValueError("offsets decrease")
        if int(offsets[-1]) != n_locations:
            raise ValueError(
                f"offsets end at {int(offsets[-1])}, not at the "
                f"{n_locations} locations"
            )

    def retrieve(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(row, found)`` of every feature: one binary search each.

        The needles are cast to the keys' ``<u4`` (a uint64 cast of the
        keys would copy the whole column on every call), and
        ``0xFFFFFFFF`` is clamped onto ``0xFFFFFFFE`` as the build
        tables clamp it on insert.  A missing feature's row is its
        insertion point, in ``0..len(self)``.
        """
        needles = np.minimum(
            np.asarray(features).astype(np.uint32, copy=False), _LAST_FEATURE
        )
        row = np.searchsorted(self._features, needles)
        if not self._features.size:
            return row, np.zeros(row.size, dtype=bool)
        return row, self._features.take(row, mode="clip") == needles

    def spans(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """int64 ``(start, end)`` of every feature's list (empty if missing)."""
        row, found = self.retrieve(features)
        starts = self._offsets.take(row).astype(np.int64)
        ends = self._offsets.take(row + found).astype(np.int64)
        return starts, ends

    def drop_arrays(self) -> None:
        """Let go of the arrays, views first (the pointers are dead after).

        A view is a buffer export of its memory map, and ``mmap.close``
        refuses while one is alive: ``Database.close`` calls this on
        every mapped index before unmapping, whoever else still holds
        the pointers object.
        """
        self._features = self._offsets = None
        self.features = self.offsets = None


@dataclass
class CondensedIndex:
    """The load-from-disk layout: dense buckets + sorted pointers.

    ``locations`` holds every feature's location list contiguously as
    uint32 words ``local << window_bits | window``: ``local`` is the
    target's rank in ``targets`` (the ascending target ids present in
    the partition) and ``window_bits`` the bit length of the largest
    window id.  ``pointers`` (:class:`SortedPointers`) maps a feature
    to its list by binary search over the sorted features; the paper's
    GPU version uses a single-value hash table there (Section 5.1),
    which in NumPy costs more bytes and a probe walk per lookup.
    :meth:`retrieve` expands the words back to the uint64
    ``target << 32 | window`` locations every other layer sees.
    """

    locations: np.ndarray
    pointers: SortedPointers
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

        ``ValueError``: features not strictly ascending, the sentinel
        feature, or content whose targets and windows do not fit one
        word.
        """
        pointers = SortedPointers.from_lengths(features, lengths)
        return cls.from_locations(locations, pointers)

    @classmethod
    def from_locations(
        cls, locations: np.ndarray, pointers: SortedPointers
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
        """Same contract as ``MultiBucketHashTable.retrieve``.

        ``IndexError`` when an offset read decreases or lies outside
        the location array (a corrupt partition).
        """
        starts, ends = self.pointers.spans(features)
        lengths = ends - starts  # int64: a uint32 difference would wrap
        if lengths.size and (
            int(lengths.min()) < 0
            or int(starts.min()) < 0
            or int(ends.max()) > self.locations.size
        ):
            raise IndexError("an offset decreases or lies past the location array")
        offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        words = gather_segments(self.locations, starts, lengths)
        return self.expand(words), offsets

    @property
    def nbytes(self) -> int:
        return (
            int(self.locations.nbytes)
            + int(self.targets.nbytes)
            + self.pointers.nbytes
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
        corrupt location word first shows up here, as an index past the
        end of the target map, and a corrupt offset as one that
        decreases or points past the location array: either raises
        :class:`DatabaseFormatError` naming this partition.
        """
        if self.condensed is not None:
            try:
                return self.condensed.retrieve(features)
            except IndexError as exc:
                raise DatabaseFormatError(
                    f"partition {self.partition_id}: corrupt index, a location "
                    f"word or offset lies outside its array ({exc})"
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
                pointers = cond.pointers
                for array in (cond.locations, pointers.features, pointers.offsets):
                    mm = getattr(array, "_mmap", None)
                    if mm is not None:
                        found.append(mm)
                # the pointers' lookup views are exports of those maps
                pointers.drop_arrays()
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
