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

import secrets
import threading
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.config import MetaCacheParams
from repro.errors import SharedMemoryUnavailableError
from repro.taxonomy.lca import LcaIndex
from repro.taxonomy.lineage import RankedLineages
from repro.taxonomy.tree import Taxonomy
from repro.warpcore.multi_bucket import MultiBucketHashTable
from repro.warpcore.single_value import SingleValueHashTable

__all__ = [
    "TargetRecord",
    "DatabasePartition",
    "CondensedIndex",
    "Database",
    "SharedArraySpec",
    "SharedPartitionSpec",
    "SharedDatabaseHandle",
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


@dataclass
class CondensedIndex:
    """The load-from-disk layout: dense buckets + pointer table.

    ``locations`` holds every feature's location list contiguously;
    ``pointers`` maps a feature to its packed (offset << 24 | length)
    via a :class:`SingleValueHashTable` (Section 5.1 uses exactly this
    structure on the GPU).
    """

    OFFSET_SHIFT = np.uint64(24)
    LENGTH_MASK = np.uint64((1 << 24) - 1)

    locations: np.ndarray
    pointers: SingleValueHashTable

    @classmethod
    def from_table(cls, table: MultiBucketHashTable) -> "CondensedIndex":
        """Compact a build-layout table into the condensed layout."""
        uniq = table.occupied_keys()
        values, offsets = table.retrieve(uniq)
        lengths = np.diff(offsets).astype(np.uint64)
        if lengths.size and int(lengths.max()) >= (1 << 24):
            raise ValueError("location list too long for condensed pointer")
        packed = (offsets[:-1].astype(np.uint64) << cls.OFFSET_SHIFT) | lengths
        pointers = SingleValueHashTable(capacity_keys=max(16, uniq.size))
        pointers.insert(uniq, packed)
        return cls(locations=values, pointers=pointers)

    def retrieve(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Same contract as ``MultiBucketHashTable.retrieve``."""
        packed, found = self.pointers.retrieve(features)
        lengths = np.where(found, packed & self.LENGTH_MASK, np.uint64(0)).astype(
            np.int64
        )
        starts = (packed >> self.OFFSET_SHIFT).astype(np.int64)
        offsets = np.zeros(features.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        out = np.empty(int(offsets[-1]), dtype=np.uint64)
        # gather each query's slice (vectorized over a range matrix is
        # wasteful for skewed lengths; use repeat-based gather instead)
        if out.size:
            idx = np.repeat(starts, lengths) + _ramp(lengths)
            out[:] = self.locations[idx]
        return out, offsets

    @property
    def nbytes(self) -> int:
        return int(self.locations.nbytes) + self.pointers.stats().bytes_total


def _ramp(lengths: np.ndarray) -> np.ndarray:
    """[0,1,..,l0-1, 0,1,..,l1-1, ...] for the repeat-based gather."""
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    ends = np.cumsum(lengths)
    seg_starts = ends - lengths
    return np.arange(total, dtype=np.int64) - np.repeat(seg_starts, lengths)


@dataclass
class DatabasePartition:
    """One partition: a hash table in the build or condensed layout."""

    partition_id: int
    table: MultiBucketHashTable | None
    condensed: CondensedIndex | None = None

    def retrieve(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self.condensed is not None:
            return self.condensed.retrieve(features)
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
        #: on-disk format this database was loaded from (None = built
        #: in memory); set by :func:`repro.core.io.load_database`.
        self.format_version: int | None = None
        #: directory of the mmap-backed (format v2) index, when this
        #: database was opened with ``mmap=True``.  Worker processes
        #: then share the index through the page cache instead of a
        #: shared-memory export (see :meth:`sharing_handle`).
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
                    getattr(cond.pointers, "_keys", None),
                    getattr(cond.pointers, "_values", None),
                ):
                    mm = getattr(array, "_mmap", None)
                    if mm is not None:
                        found.append(mm)
            p.condensed = None
            p.table = None
            return found

        mmaps = {id(mm): mm for p in self.partitions for mm in strip(p)}
        for mm in mmaps.values():
            try:
                mm.close()
            except (BufferError, ValueError, OSError):  # pragma: no cover
                pass

    def to_shared(self) -> "SharedDatabaseHandle":
        """Export this database into shared memory (see the handle docs)."""
        return SharedDatabaseHandle.export(self)

    def sharing_handle(self):
        """The cheapest handle worker processes can attach this database by.

        A database opened from a format-v2 directory with ``mmap=True``
        is shared through the page cache: the returned
        :class:`FileBackedDatabaseHandle` pickles as just the directory
        path and each worker memory-maps the same ``.npy`` files, so no
        second copy of the index ever exists.  Any other database falls
        back to the one-time shared-memory export
        (:meth:`SharedDatabaseHandle.export`).
        """
        if self.mmap_path is not None:
            return FileBackedDatabaseHandle(self.mmap_path)
        return SharedDatabaseHandle.export(self)


# ---------------------------------------------------------------------------
# zero-copy shared-memory export (the multi-process query engine substrate)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SharedArraySpec:
    """Recipe to re-materialize one numpy array from a shared block.

    The spec is what travels between processes (a few dozen bytes);
    the array payload itself lives in the named
    :class:`multiprocessing.shared_memory.SharedMemory` block and is
    mapped, never copied, by :meth:`SharedDatabaseHandle.attach`.
    """

    name: str
    shape: tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        """Payload size in bytes (0 for empty arrays; blocks are >= 1)."""
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class SharedPartitionSpec:
    """One partition's condensed layout, described as shared blocks.

    ``pointer_keys`` / ``pointer_values`` are the raw slot arrays of
    the feature -> (offset, length) single-value table;
    ``n_groups`` / ``group_size`` / ``max_probe_rounds`` / ``size``
    reconstruct the exact probing scheme, so attached workers probe
    bit-identically to the exporting process.
    """

    locations: SharedArraySpec
    pointer_keys: SharedArraySpec
    pointer_values: SharedArraySpec
    n_groups: int
    group_size: int
    max_probe_rounds: int
    size: int
    dropped: int


class SharedDatabaseHandle:
    """Zero-copy export of a :class:`Database` for worker processes.

    The paper's query pipeline keeps one database resident per device
    and fans read batches out to it; the multi-process engine
    (:mod:`repro.parallel`) does the same on the host: the loaded
    database's numpy arrays — condensed location lists, pointer-table
    slots, and target metadata — are copied **once** into named
    ``multiprocessing.shared_memory`` blocks, and every worker maps
    those blocks read-only at attach time.  N workers therefore share
    one physical copy of the index; per-worker memory is just the read
    batches in flight.

    Lifetime protocol (explicit, no pickled arrays anywhere):

    - ``SharedDatabaseHandle.export(db)`` (owner) creates the blocks;
    - the handle itself pickles cheaply (specs + params + taxonomy) to
      worker processes, e.g. as a ``Process`` argument;
    - ``handle.attach()`` (any process) maps the blocks and returns a
      fully functional read-only :class:`Database`;
    - ``handle.close()`` (every process) drops the attached database
      and unmaps the blocks — safe to call repeatedly;
    - ``handle.unlink()`` (owner, once, after workers exited or at
      least attached) frees the backing memory.

    The handle is a context manager: ``with Database.to_shared() as
    handle: ...`` closes *and* unlinks on exit when owning.
    """

    def __init__(
        self,
        params: MetaCacheParams,
        taxonomy: Taxonomy,
        target_meta: SharedArraySpec,
        target_name_bytes: SharedArraySpec,
        partitions: list[SharedPartitionSpec],
    ) -> None:
        self.params = params
        self.taxonomy = taxonomy
        self.target_meta = target_meta
        self.target_name_bytes = target_name_bytes
        self.partitions = partitions
        self._blocks: dict[str, object] = {}  # name -> SharedMemory (this process)
        self._owner = False
        self._unlinked = False
        self._database: Database | None = None

    # ------------------------------------------------------------ pickling

    def __getstate__(self) -> dict:
        """Pickle only the specs — never open blocks or mapped arrays."""
        state = self.__dict__.copy()
        state["_blocks"] = {}
        state["_owner"] = False
        state["_database"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------- export

    @classmethod
    def export(cls, db: Database) -> "SharedDatabaseHandle":
        """Copy a database's arrays into fresh shared-memory blocks.

        The database is condensed first (the condensed layout is the
        query layout and the only one made of flat arrays); build-mode
        databases therefore lose their insert capability, exactly as
        they do on save.

        Raises
        ------
        SharedMemoryUnavailableError
            when the platform refuses to create shared memory (no
            ``/dev/shm``, permissions, seccomp, ...).  Callers that can
            degrade catch this and classify single-process instead.
        """
        db.condense()
        prefix = f"mcdb-{secrets.token_hex(4)}"
        handle: SharedDatabaseHandle | None = None
        blocks: dict[str, object] = {}
        try:
            def put(tag: str, array: np.ndarray) -> SharedArraySpec:
                spec, block = _create_block(f"{prefix}-{tag}", array)
                blocks[spec.name] = block
                return spec

            n = len(db.targets)
            meta = np.empty((n, 4), dtype=np.int64)
            for i, t in enumerate(db.targets):
                meta[i] = (t.taxon_id, t.length, t.n_windows, t.partition_id)
            name_blob = "\x00".join(t.name for t in db.targets).encode("utf-8")
            name_bytes = np.frombuffer(name_blob, dtype=np.uint8).copy()

            part_specs: list[SharedPartitionSpec] = []
            for p in db.partitions:
                cond = p.condensed
                assert cond is not None  # condense() above guarantees it
                probing = cond.pointers.probing
                part_specs.append(
                    SharedPartitionSpec(
                        locations=put(f"p{p.partition_id}-loc", cond.locations),
                        pointer_keys=put(f"p{p.partition_id}-keys", cond.pointers._keys),
                        pointer_values=put(
                            f"p{p.partition_id}-vals", cond.pointers._values
                        ),
                        n_groups=probing.n_groups,
                        group_size=probing.group_size,
                        max_probe_rounds=probing.max_probe_rounds,
                        size=len(cond.pointers),
                        dropped=cond.pointers._dropped,
                    )
                )
            handle = cls(
                params=db.params,
                taxonomy=db.taxonomy,
                target_meta=put("tmeta", meta),
                target_name_bytes=put("tnames", name_bytes),
                partitions=part_specs,
            )
            handle._blocks = blocks
            handle._owner = True
            return handle
        except BaseException as exc:
            # never leak partially created blocks, whatever went wrong
            # (MemoryError mid-copy, KeyboardInterrupt, ...): named shm
            # segments outlive this call unless explicitly unlinked
            for block in blocks.values():
                try:
                    block.close()
                    block.unlink()
                except OSError:
                    pass
            if isinstance(exc, (OSError, PermissionError)):
                raise SharedMemoryUnavailableError(
                    f"cannot create shared memory for database export: {exc}"
                ) from exc
            raise

    # ------------------------------------------------------------- attach

    def attach(self) -> Database:
        """Map the shared blocks and return a read-only database view.

        Idempotent per process: repeated calls return the same
        :class:`Database`.  In non-owner (worker) processes the mapped
        blocks are deregistered from the multiprocessing resource
        tracker so a worker's exit can never reap blocks the owner is
        still serving from.

        Raises
        ------
        SharedMemoryUnavailableError
            when a named block no longer exists (the owner unlinked
            too early) or cannot be mapped.
        """
        if self._database is not None:
            return self._database
        try:
            targets = self._attach_targets()
            partitions = [
                self._attach_partition(i, spec)
                for i, spec in enumerate(self.partitions)
            ]
        except (OSError, PermissionError, FileNotFoundError) as exc:
            raise SharedMemoryUnavailableError(
                f"cannot attach shared database blocks: {exc}"
            ) from exc
        self._database = Database(
            params=self.params,
            taxonomy=self.taxonomy,
            partitions=partitions,
            targets=targets,
        )
        return self._database

    @property
    def database(self) -> Database:
        """The attached database (attaching on first access)."""
        return self.attach()

    def _map(self, spec: SharedArraySpec, *, writeable: bool = False) -> np.ndarray:
        """Map one spec to a numpy view over its shared block."""
        block = self._blocks.get(spec.name)
        if block is None:
            block = _open_block(spec.name, owner=self._owner)
            self._blocks[spec.name] = block
        view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=block.buf)
        view.flags.writeable = writeable
        return view

    def _attach_targets(self) -> list[TargetRecord]:
        meta = self._map(self.target_meta)
        blob = bytes(self._map(self.target_name_bytes))
        names = blob.decode("utf-8").split("\x00") if meta.shape[0] else []
        if len(names) != meta.shape[0]:
            raise SharedMemoryUnavailableError(
                f"target name blob has {len(names)} names for {meta.shape[0]} targets"
            )
        return [
            TargetRecord(
                target_id=i,
                name=names[i],
                taxon_id=int(meta[i, 0]),
                length=int(meta[i, 1]),
                n_windows=int(meta[i, 2]),
                partition_id=int(meta[i, 3]),
            )
            for i in range(meta.shape[0])
        ]

    def _attach_partition(
        self, partition_id: int, spec: SharedPartitionSpec
    ) -> DatabasePartition:
        from repro.warpcore.probing import ProbingScheme

        probing = ProbingScheme(
            n_groups=spec.n_groups,
            group_size=spec.group_size,
            max_probe_rounds=spec.max_probe_rounds,
        )
        pointers = SingleValueHashTable.from_arrays(
            keys=self._map(spec.pointer_keys),
            values=self._map(spec.pointer_values),
            probing=probing,
            size=spec.size,
            dropped=spec.dropped,
        )
        condensed = CondensedIndex(
            locations=self._map(spec.locations), pointers=pointers
        )
        return DatabasePartition(
            partition_id=partition_id, table=None, condensed=condensed
        )

    # ------------------------------------------------------------ lifetime

    @property
    def block_names(self) -> list[str]:
        """Names of every shared block backing this handle."""
        names = [self.target_meta.name, self.target_name_bytes.name]
        for p in self.partitions:
            names += [p.locations.name, p.pointer_keys.name, p.pointer_values.name]
        return names

    @property
    def nbytes(self) -> int:
        """Total payload bytes shared across processes (one copy)."""
        specs = [self.target_meta, self.target_name_bytes]
        for p in self.partitions:
            specs += [p.locations, p.pointer_keys, p.pointer_values]
        return sum(s.nbytes for s in specs)

    def close(self) -> None:
        """Drop the attached database and unmap blocks (idempotent).

        Any live numpy views handed out via :meth:`attach` keep their
        block's mapping alive until they are garbage collected — close
        never invalidates memory behind a caller's back, it only
        releases this handle's references.
        """
        self._database = None
        blocks, self._blocks = self._blocks, {}
        for block in blocks.values():
            try:
                block.close()
            except BufferError:
                # a caller still holds a view into this block; the
                # mapping dies with that view instead of with us
                pass

    def unlink(self) -> None:
        """Free the backing shared memory (owner only; idempotent).

        After unlink, processes already attached keep working (POSIX
        semantics) but new :meth:`attach` calls fail.  Called
        automatically by ``__exit__`` in the owning process.
        """
        if self._unlinked:
            return
        self._unlinked = True
        from multiprocessing import shared_memory

        for name in self.block_names:
            block = self._blocks.get(name)
            try:
                if block is None:
                    block = shared_memory.SharedMemory(name=name)
                block.unlink()
            except (FileNotFoundError, OSError):
                pass

    def __enter__(self) -> "SharedDatabaseHandle":
        return self

    def __exit__(self, *exc) -> None:
        owner = self._owner
        self.close()
        if owner:
            self.unlink()

    def __repr__(self) -> str:
        state = "attached" if self._database is not None else "detached"
        return (
            f"SharedDatabaseHandle({len(self.partitions)} partition(s), "
            f"{self.nbytes:,} shared bytes, {state})"
        )


def _create_block(name: str, array: np.ndarray) -> tuple[SharedArraySpec, object]:
    """Create one shared block and copy ``array`` into it."""
    from multiprocessing import shared_memory

    array = np.ascontiguousarray(array)
    block = shared_memory.SharedMemory(
        name=name, create=True, size=max(1, array.nbytes)
    )
    spec = SharedArraySpec(name=name, shape=array.shape, dtype=array.dtype.str)
    if array.nbytes:
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=block.buf)
        view[...] = array
        del view
    return spec, block


class FileBackedDatabaseHandle:
    """Zero-copy handle over a saved format-v2 database directory.

    The file-backed sibling of :class:`SharedDatabaseHandle` for
    databases opened with ``mmap=True``: its pickled state is **just
    the directory path** (a few dozen bytes), and :meth:`attach`
    memory-maps the directory's aligned ``.npy`` index files via
    :func:`repro.core.io.load_database`.  Every process attaching the
    same directory shares one physical copy of the index through the
    operating system's page cache -- no shared-memory export, no
    resource-tracker lifetime protocol, and nothing to free:
    :meth:`unlink` is a no-op because the backing files belong to the
    saved database, not to this handle.

    The lifecycle API mirrors :class:`SharedDatabaseHandle` so the
    multi-process engine (:mod:`repro.parallel`) can drive either
    handle interchangeably.
    """

    def __init__(self, directory) -> None:
        self.directory = str(directory)
        self._database: Database | None = None

    def __getstate__(self) -> dict:
        """Pickle only the path -- never the mapped database."""
        return {"directory": self.directory}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
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

        Unlike the shared-memory handle, the mapped files are this
        process's own fds, so close releases them deterministically
        via :meth:`Database.close` instead of waiting for garbage
        collection.
        """
        db, self._database = self._database, None
        if db is not None:
            db.close()

    def unlink(self) -> None:
        """No-op: the backing files belong to the database directory."""

    def __enter__(self) -> "FileBackedDatabaseHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "attached" if self._database is not None else "detached"
        return f"FileBackedDatabaseHandle({self.directory!r}, {state})"


def _open_block(name: str, *, owner: bool) -> object:
    """Open an existing shared block by name.

    Non-owner processes deregister the block from the multiprocessing
    resource tracker: the tracker would otherwise unlink blocks it saw
    in *any* process at interpreter shutdown, destroying segments the
    owner still serves (the owner alone is responsible for unlinking).
    """
    from multiprocessing import shared_memory

    block = shared_memory.SharedMemory(name=name)
    if not owner:
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(f"/{name}", "shared_memory")
        except (ImportError, KeyError, ValueError):  # pragma: no cover
            pass
    return block
