"""The reference database: partitioned minhash k-mer index + taxonomy.

A database maps 32-bit sketch features to packed (target, window)
locations, one index per *partition*.  Partitions correspond to GPUs
(Section 4.3): a reference sequence (target) is never split across
partitions, the same feature may appear in several partitions, and
each partition enforces the per-feature location cap independently --
which is why the partitioned GPU database retains more locations per
k-mer than the single CPU table and gains accuracy (Section 6.5).

Builds (:mod:`repro.core.builder`) and loads alike produce the
paper's **condensed layout** (Section 5.1), stored as two sorted
columns per partition (:class:`SortedPointers`): a feature with one
location keeps that 32-bit word inline beside it, and every longer
list lies in one dense array that the running sums of the lengths
point into (the paper's GPU version reaches every list through a
single-value hash table).  Most features own one location, so the
singles column saves an offsets entry each.  A lookup is one binary
search over the singles and one over the multis for the singles'
misses.  Only ``DatabaseBuilder.finalize(condense=False)`` leaves a
partition holding a :class:`repro.warpcore.MultiBucketHashTable`;
``Database.query_features`` and the query pipeline answer from either.
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
from repro.sort.segmented import LocationKeyLayout
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
    "pack_locations",
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


#: a partition whose multi column holds fewer locations than this
#: stores ``<u4`` offsets, any other ``<u8`` (:func:`offsets_dtype`)
NARROW_OFFSETS_LIMIT = 1 << 32
# the largest storable feature: build tables clamp the sentinel onto it
_LAST_FEATURE = np.uint32(0xFFFFFFFE)


def offsets_dtype(n_locations: int) -> np.dtype:
    """The offsets dtype of a multi column holding ``n_locations`` locations."""
    return np.dtype("<u4" if n_locations < NARROW_OFFSETS_LIMIT else "<u8")


def pack_locations(locations: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """``(words, targets, window_bits)`` of uint64 ``target << 32 | window``
    locations.

    The target map and ``window_bits`` come from the locations
    themselves: the targets present, ascending, and each location's
    rank among them -- one bincount and one running sum, no sort.
    Target ids past the number of locations (no build makes them, a
    hand-filled table can) would make the count longer than the input,
    so those are ranked by ``np.unique``.  ``ValueError`` when targets
    and windows do not fit one :data:`LOCATION_WORD_BITS`-bit word.
    """
    locations = np.asarray(locations, dtype=np.uint64)
    target = (locations >> np.uint64(32)).astype(np.uint32)
    if int(target.max(initial=0)) <= target.size:
        present = np.bincount(target) > 0
        targets = np.flatnonzero(present).astype(np.uint32)
        local = (np.cumsum(present, dtype=np.uint32) - np.uint32(1)).take(target)
    else:
        targets, local = np.unique(target, return_inverse=True)
        local = local.astype(np.uint32)
    window = (locations & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    max_window = int(window.max(initial=0))
    if not location_word_fits(targets.size, max_window):
        raise ValueError(
            f"{targets.size} targets with window ids up to {max_window} "
            f"do not fit a {LOCATION_WORD_BITS}-bit location word"
        )
    window_bits = max_window.bit_length()
    words = local << np.uint32(window_bits)
    words |= window
    return words, targets, window_bits


def _search(keys: np.ndarray, needles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(found, row)`` of every needle in one ascending key column; a
    missing needle's row is its insertion point."""
    row = np.searchsorted(keys, needles)
    if not keys.size:
        return np.zeros(row.size, dtype=bool), row
    return keys.take(row, mode="clip") == needles, row


class SortedPointers:
    """Feature -> location words, as two sorted columns.

    - **Singles.** ``single_features`` (strictly ascending ``<u4``) and
      ``single_words`` (``<u4``): a feature with exactly one location
      stores that word inline, where a pointer would be.
    - **Multis.** ``multi_features`` (strictly ascending ``<u4``),
      ``multi_offsets`` (``n + 1`` running sums, ``<u4`` or ``<u8``,
      from 0 to the location count) and ``multi_locations`` (``<u4``):
      the list of ``multi_features[row]`` is
      ``multi_locations[offsets[row]:offsets[row + 1]]``, two or more
      words.

    No feature is in both columns, and the sentinel ``0xFFFFFFFF`` is
    in neither.  The arrays are kept as handed in -- for a
    memory-mapped index the ``np.memmap`` objects that
    ``Database.close`` unmaps -- and lookups read base-``ndarray``
    views of them, taken once, because every index into an
    ``np.memmap`` pays a Python-level ``__getitem__`` and
    ``__array_finalize__``.
    """

    def __init__(
        self,
        single_features: np.ndarray,
        single_words: np.ndarray,
        multi_features: np.ndarray,
        multi_offsets: np.ndarray,
        multi_locations: np.ndarray,
    ) -> None:
        self.single_features = single_features
        self.single_words = single_words
        self.multi_features = multi_features
        self.multi_offsets = multi_offsets
        self.multi_locations = multi_locations
        self._single_features = single_features.view(np.ndarray)
        self._single_words = single_words.view(np.ndarray)
        self._multi_features = multi_features.view(np.ndarray)
        self._multi_offsets = multi_offsets.view(np.ndarray)
        self._multi_locations = multi_locations.view(np.ndarray)

    @classmethod
    def split(
        cls, features: np.ndarray, lengths: np.ndarray, words: np.ndarray
    ) -> "SortedPointers":
        """The two columns of ascending ``features`` whose lists of
        ``lengths`` lie dense in feature order in ``words``.

        ``ValueError``: features that are not strictly ascending, the
        sentinel (or a feature past 32 bits), an empty list, or lengths
        that do not add up to the words.
        """
        features = np.asarray(features)
        lengths = np.asarray(lengths, dtype=np.int64)
        words = np.asarray(words, dtype=np.uint32)
        if features.size and not (
            0 <= int(features.min()) and int(features.max()) <= _LAST_FEATURE
        ):
            raise ValueError("a feature is the sentinel 0xFFFFFFFF or past 32 bits")
        if lengths.size != features.size or int(lengths.sum()) != words.size:
            raise ValueError("list lengths do not add up to the location words")
        if lengths.size and int(lengths.min()) < 1:
            raise ValueError("empty location list")
        if np.any(features[1:] <= features[:-1]):
            raise ValueError("features are not strictly ascending")
        single = lengths == 1
        singles = np.flatnonzero(single)
        multis = np.flatnonzero(~single)
        # the one word of a single is the last (only) word of its list
        at = np.cumsum(lengths).take(singles)
        at -= 1
        in_multi = np.ones(words.size, dtype=bool)
        in_multi[at] = False
        multi_lengths = lengths.take(multis)
        offsets = np.zeros(multis.size + 1, dtype=offsets_dtype(words.size - at.size))
        offsets[1:] = np.cumsum(multi_lengths)
        # disjoint, ascending columns by construction: nothing to validate
        return cls(
            features.take(singles).astype("<u4"),
            words.take(at),
            features.take(multis).astype("<u4"),
            offsets,
            words.compress(in_multi),
        )

    def __len__(self) -> int:
        return int(self.single_features.size + self.multi_features.size)

    @property
    def n_locations(self) -> int:
        """Location words stored, in both columns."""
        return int(self.single_words.size + self.multi_locations.size)

    def arrays(self) -> dict[str, np.ndarray]:
        """The five arrays by manifest key, in file order."""
        return {
            "single.features": self.single_features,
            "single.words": self.single_words,
            "multi.features": self.multi_features,
            "multi.offsets": self.multi_offsets,
            "multi.locations": self.multi_locations,
        }

    def validate(self) -> None:
        """Check the whole arrays; ``ValueError`` names the first fault."""
        singles, multis = self._single_features, self._multi_features
        offsets = self._multi_offsets
        for name, keys in (("single", singles), ("multi", multis)):
            if np.any(keys[1:] <= keys[:-1]):
                raise ValueError(f"{name} features are not strictly ascending")
            if keys.size and keys[-1] > _LAST_FEATURE:
                raise ValueError("the sentinel 0xFFFFFFFF is stored as a feature")
        if self._single_words.size != singles.size:
            raise ValueError("single words and single features differ in count")
        if offsets.size != multis.size + 1 or int(offsets[0]) != 0:
            raise ValueError("multi offsets do not start at 0")
        if np.any(offsets[1:] < offsets[:-1]):
            raise ValueError("multi offsets decrease")
        if np.any(offsets[1:] - offsets[:-1] < 2):
            raise ValueError("a multi-column list holds fewer than two locations")
        if int(offsets[-1]) != self._multi_locations.size:
            raise ValueError(
                f"multi offsets end at {int(offsets[-1])}, not at the "
                f"{self._multi_locations.size} multi-column locations"
            )
        if np.intersect1d(singles, multis, assume_unique=True).size:
            raise ValueError("a feature is stored in both columns")

    def lookup(
        self, features: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(words, starts, lengths)``: every feature's list is
        ``words[start : start + length]`` (empty if missing).

        One binary search over the singles, and one over the multis for
        the singles' misses only.  ``words`` holds the singles' hits
        first, then the multi lists, each once per needle: its order is
        not the features' order.  The needles are cast to the keys'
        ``<u4`` (a uint64 cast of the keys would copy a whole column on
        every call), and ``0xFFFFFFFF`` is clamped onto ``0xFFFFFFFE``
        as the build tables clamp it on insert.  ``IndexError`` when an
        offset read decreases or lies outside the multi locations (a
        corrupt partition).
        """
        needles = np.minimum(
            np.asarray(features).astype(np.uint32, copy=False), _LAST_FEATURE
        )
        single, row = _search(self._single_features, needles)
        hits = np.flatnonzero(single)
        misses = np.flatnonzero(~single)
        found, multi_row = _search(self._multi_features, needles.take(misses))
        begin = self._multi_offsets.take(multi_row).astype(np.int64)
        multi_lengths = self._multi_offsets.take(multi_row + found).astype(np.int64)
        multi_lengths -= begin  # int64: a uint32 difference would wrap
        if multi_lengths.size and (
            int(multi_lengths.min()) < 0
            or int(begin.min()) < 0
            or int((begin + multi_lengths).max()) > self._multi_locations.size
        ):
            raise IndexError("an offset decreases or lies past the location array")
        words = np.concatenate((
            self._single_words.take(row.take(hits)),
            gather_segments(self._multi_locations, begin, multi_lengths),
        ))
        starts = np.empty(needles.size, dtype=np.int64)
        lengths = np.empty(needles.size, dtype=np.int64)
        starts[hits] = np.arange(hits.size)
        lengths[hits] = 1
        ends = np.cumsum(multi_lengths)
        ends += hits.size
        starts[misses] = ends - multi_lengths
        lengths[misses] = multi_lengths
        return words, starts, lengths

    def retrieve(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(length, found)`` of every feature: its list length (0 when
        missing) and whether either column stores it."""
        lengths = self.lookup(features)[2]
        return lengths, lengths > 0

    def drop_arrays(self) -> None:
        """Let go of the arrays, views first (the pointers are dead after).

        A view is a buffer export of its memory map, and ``mmap.close``
        refuses while one is alive: ``Database.close`` calls this on
        every mapped index before unmapping, whoever else still holds
        the pointers object.
        """
        self._single_features = self._single_words = None
        self._multi_features = self._multi_offsets = self._multi_locations = None
        self.single_features = self.single_words = None
        self.multi_features = self.multi_offsets = self.multi_locations = None


@dataclass
class CondensedIndex:
    """The load-from-disk layout: two sorted columns of location words.

    Every location is a uint32 word ``local << window_bits | window``:
    ``local`` is the target's rank in ``targets`` (the ascending target
    ids present in the partition) and ``window_bits`` the bit length of
    the largest window id.  ``pointers`` (:class:`SortedPointers`) maps
    a feature to its words by binary search: a singleton's word inline,
    a longer list through running sums; the paper's GPU version uses a
    single-value hash table there (Section 5.1), which in NumPy costs
    more bytes and a probe walk per lookup.  :meth:`location_keys`
    turns a lookup straight into the query tail's keys;
    :meth:`retrieve` expands it back to the uint64
    ``target << 32 | window`` locations, in feature order.
    """

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
        """Index canonical content: ascending features, their list
        lengths, and uint64 ``locations`` dense in feature order.

        Packs the words (:func:`pack_locations`) and splits the lists by
        length once.  ``ValueError``: features not strictly ascending,
        the sentinel feature, an empty list, or content whose targets
        and windows do not fit one word.
        """
        words, targets, window_bits = pack_locations(locations)
        return cls(SortedPointers.split(features, lengths, words), targets, window_bits)

    def location_keys(
        self, features: np.ndarray
    ) -> tuple[LocationKeyLayout, np.ndarray, np.ndarray, np.ndarray]:
        """``(layout, keys, starts, lengths)``: the
        :meth:`SortedPointers.lookup` of a feature batch with every word
        turned into its ``(target | window)`` key
        (:meth:`LocationKeyLayout.of_words`).

        ``IndexError`` when a word's local target is outside the map or
        an offset is corrupt.
        """
        words, starts, lengths = self.pointers.lookup(features)
        layout, keys = LocationKeyLayout.of_words(words, self.targets, self.window_bits)
        return layout, keys, starts, lengths

    def retrieve(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Same contract as ``MultiBucketHashTable.retrieve``: the uint64
        locations of every feature in feature order, and their offsets.

        ``IndexError`` when a word's local target is outside the map or
        an offset is corrupt.
        """
        words, starts, lengths = self.pointers.lookup(features)
        offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return self.expand(gather_segments(words, starts, lengths)), offsets

    def expand(self, words: np.ndarray) -> np.ndarray:
        """uint64 ``target << 32 | window`` of this index's location words.

        ``IndexError`` when a word's local target is outside the map
        (a corrupt partition).
        """
        expanded = self._target_words.take(words >> np.uint32(self.window_bits))
        expanded |= words & np.uint32((1 << self.window_bits) - 1)
        return expanded

    def content(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical ``(features, lengths, words)``: uint64 features
        ascending across both columns, int64 list lengths, and the words
        dense in that order (a fresh copy of the whole index)."""
        p = self.pointers
        n_single = p.single_features.size
        offsets = np.asarray(p.multi_offsets).astype(np.int64)
        features = np.concatenate((p.single_features, p.multi_features))
        order = np.argsort(features, kind="stable")
        lengths = np.concatenate((np.ones(n_single, np.int64), np.diff(offsets)))
        starts = np.concatenate((np.arange(n_single), offsets[:-1] + n_single))
        lengths = lengths.take(order)
        words = gather_segments(
            np.concatenate((p.single_words, p.multi_locations)),
            starts.take(order), lengths,
        )
        return features.take(order).astype(np.uint64), lengths, words

    def arrays(self) -> dict[str, np.ndarray]:
        """Every array of the partition by manifest key, in file order:
        what a save writes and what a memory-mapped open maps."""
        return {**self.pointers.arrays(), "targets": self.targets}

    def drop_arrays(self) -> list:
        """Let go of every array; returns the memory maps behind them.

        ``Database.close`` calls this on every index before unmapping
        what it returns (the pointers' lookup views go first).
        """
        maps = [
            mm for array in self.arrays().values()
            if (mm := getattr(array, "_mmap", None)) is not None
        ]
        self.pointers.drop_arrays()
        return maps

    @property
    def nbytes(self) -> int:
        return sum(int(array.nbytes) for array in self.arrays().values())


@dataclass
class DatabasePartition:
    """One partition: its condensed index, or a build-layout table."""

    partition_id: int
    table: MultiBucketHashTable | None
    condensed: CondensedIndex | None = None

    def retrieve(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Location lists of a feature batch (``retrieve`` contract)."""
        if self.condensed is None:
            return self._table().retrieve(features)
        return self._read(CondensedIndex.retrieve, features)

    def location_keys(
        self, features: np.ndarray
    ) -> tuple[LocationKeyLayout, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`CondensedIndex.location_keys` of a feature batch.

        A build-layout table (whose content need not fit a 32-bit word)
        answers with uint64 locations, squeezed into the same keys.
        """
        if self.condensed is None:
            locations, offsets = self._table().retrieve(features)
            layout = LocationKeyLayout.of(locations)
            return layout, layout.squeeze(locations), offsets[:-1], np.diff(offsets)
        return self._read(CondensedIndex.location_keys, features)

    def _table(self) -> MultiBucketHashTable:
        if self.table is None:
            raise RuntimeError("partition has neither build nor condensed layout")
        return self.table

    def _read(self, method, features: np.ndarray):
        """``method(index, features)``, naming this partition on corruption.

        A plain ``mmap=True`` open skips the eager content checks, so a
        corrupt location word first shows up in a lookup, as an index
        past the end of the target map, and a corrupt offset as one
        that decreases or points past the location array: either raises
        :class:`DatabaseFormatError` naming this partition.
        """
        try:
            return method(self.condensed, features)
        except IndexError as exc:
            raise DatabaseFormatError(
                f"partition {self.partition_id}: corrupt index, a location "
                f"word or offset lies outside its array ({exc})"
            ) from exc

    @property
    def nbytes(self) -> int:
        if self.condensed is not None:
            return self.condensed.nbytes
        return self.table.stats().bytes_total if self.table else 0

    def condense(self) -> None:
        """Switch to the condensed layout (drops the build table)."""
        if self.condensed is None:
            self.condensed = CondensedIndex.from_table(self._table())
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
        return builder.finalize()

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

        def strip(p: DatabasePartition) -> list:
            # drop every array reference, so no dangling view outlives
            # the close, and collect the maps behind them
            found = p.condensed.drop_arrays() if p.condensed is not None else []
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
        physical memory however many attach.
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
