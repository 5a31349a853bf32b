"""The :class:`MetaCache` facade -- one object, three ways to get it.

- :meth:`MetaCache.open`      -- load a saved database directory;
- :meth:`MetaCache.build`     -- reference FASTA files + taxonomy dumps
  + accession->taxid mapping, through the threaded build pipeline;
- :meth:`MetaCache.ephemeral` -- the paper's on-the-fly mode: build an
  in-memory database from already-parsed references in seconds and
  query it immediately, no disk round trip (Sections 4, 6.3).

An opened or built handle can also *grow*: :meth:`MetaCache.extend`
streams additional references into the existing index through
:class:`repro.core.builder.DatabaseBuilder` (the ``metacache-repro
add`` subcommand), producing the same bytes a from-scratch build of
the full collection would.

Everything downstream (the CLI, the examples, the classification
server) talks to this facade and the
:class:`~repro.api.session.QuerySession` it hands out, so sharding /
caching can be added behind this surface without breaking callers;
:meth:`MetaCache.serve` exposes the whole thing over HTTP through
the micro-batching server in :mod:`repro.server`.
"""

from __future__ import annotations

import json
import os
import weakref
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.api.records import BuildStats, ClassificationRun, DatabaseInfo
from repro.api.session import QuerySession
from repro.core.builder import DatabaseBuilder
from repro.core.config import ClassificationParams, MetaCacheParams
from repro.core.database import Database
from repro.core.io import convert_database, load_database, save_database
from repro.errors import ConfigError, DatabaseFormatError, InvalidMappingError, ReloadError
from repro.genomics.alphabet import encode_sequence
from repro.shard.plan import ShardPlan
from repro.shard.router import ShardRouter
from repro.taxonomy.ncbi import load_ncbi_dump
from repro.taxonomy.tree import Taxonomy
from repro.util.timer import Timer

if TYPE_CHECKING:  # pragma: no cover - import cycle: server imports the api
    from repro.server import ClassificationServer, ServerThread

__all__ = ["MetaCache", "load_accession_mapping"]


def load_accession_mapping(path: str | os.PathLike) -> dict[str, int]:
    """Parse an accession2taxid-style TSV (``accession <tab> taxid``)."""
    mapping: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) < 2:
                raise InvalidMappingError(
                    f"{path}:{lineno}: expected 'accession\\ttaxid'"
                )
            try:
                mapping[parts[0]] = int(parts[1])
            except ValueError:
                raise InvalidMappingError(
                    f"{path}:{lineno}: taxid {parts[1]!r} is not an integer"
                ) from None
    return mapping


def _resolve_taxonomy(taxonomy: Taxonomy | str | os.PathLike) -> Taxonomy:
    """Accept a Taxonomy object or a directory of NCBI dump files."""
    if isinstance(taxonomy, Taxonomy):
        return taxonomy
    directory = Path(taxonomy)
    return load_ncbi_dump(directory / "nodes.dmp", directory / "names.dmp")


@contextmanager
def _translate_db_errors(path: str | os.PathLike[str]) -> Iterator[None]:
    """Map raw loader errors on ``path`` to ``DatabaseFormatError``.

    The loaders' long-standing contract lets ``FileNotFoundError`` /
    ``json.JSONDecodeError`` escape raw; the facade boundary turns
    both into the typed error, shared by :meth:`MetaCache.open` and
    :meth:`MetaCache.convert` so the translation rules cannot diverge.
    """
    try:
        yield
    except DatabaseFormatError:
        raise
    except FileNotFoundError as exc:
        if Path(path, "database.meta").is_file():
            raise DatabaseFormatError(
                f"truncated database at {path}: {exc}"
            ) from exc
        raise DatabaseFormatError(f"no database at {path} ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise DatabaseFormatError(f"{path}: corrupt metadata ({exc})") from exc


class MetaCache:
    """A queryable MetaCache database behind one stable handle.

    Construct via :meth:`open`, :meth:`build` or :meth:`ephemeral`
    (wrapping an existing :class:`~repro.core.database.Database` with
    the plain constructor also works).  Query via :meth:`session` /
    :meth:`classify`; persist via :meth:`save`.  Usable as a context
    manager -- ``close()`` shuts down worker pools and unmaps the index.
    """

    def __init__(
        self,
        database: Database,
        *,
        build_seconds: float = 0.0,
        router: "ShardRouter | None" = None,
    ) -> None:
        self.database = database
        self._router = router
        self._build_seconds = build_seconds
        #: directory this handle was opened from / last reloaded to
        #: (None for built/ephemeral handles); :meth:`serve` hands it
        #: to the server's ``/stats`` reload block.
        self.source_path: str | None = None
        self._default_session: QuerySession | None = None
        # weak refs: tracking sessions for close() must not keep every
        # short-lived per-request session (and its reports) alive
        self._sessions: weakref.WeakSet[QuerySession] = weakref.WeakSet()

    # ------------------------------------------------------------ constructors

    @classmethod
    def open(
        cls,
        path: str | os.PathLike,
        *,
        mmap: bool = False,
        shards: int | None = None,
        replicas: int = 1,
    ) -> "MetaCache":
        """Load a saved database directory (condensed query layout).

        ``mmap=True`` memory-maps a format-v2 database instead of
        reading it: cold open is near-instant (the saved pointer
        tables are used verbatim, no rebuild), index pages fault in on
        first query, and worker processes attach the same files
        through the page cache instead of a private spilled copy.
        Classification output is byte-identical either way.  Format-v1
        directories warn and load through the rebuild path; upgrade
        them with :meth:`convert` or ``metacache-repro convert``.

        ``shards=N`` serves the directory through a
        :class:`~repro.shard.ShardRouter` instead of querying it
        in-process: the database's partitions are planned into N
        disjoint shards, each served by ``replicas`` worker processes
        that memory-map the directory and query only their assigned
        partitions, with per-shard candidate runs merged back so
        classification output stays byte-identical (see
        :mod:`repro.shard`).  Requires a format-v2 directory and
        implies ``mmap=True``; its sessions cannot also fan out to
        workers (the router is already one process per shard
        replica).  A replica crash degrades the affected shard
        (respawned with backoff) without failing requests.
        ``close()`` shuts the router down.

        Raises :class:`repro.errors.DatabaseFormatError` when the
        directory is missing, truncated, or has the wrong version.
        """
        router = None
        if shards is not None:
            if shards < 1:
                raise ConfigError("shards must be >= 1")
            mmap = True  # replicas mmap-attach; the handle must match
        if replicas < 1:
            raise ConfigError("replicas must be >= 1")
        if replicas > 1 and shards is None:
            raise ConfigError("replicas requires shards")
        with _translate_db_errors(path):
            with Timer() as t:
                db = load_database(path, mmap=mmap)
                if shards is not None:
                    plan = ShardPlan.from_directory(path, shards)
                    router = ShardRouter(plan, replicas=replicas)
        handle = cls(db, build_seconds=t.elapsed, router=router)
        handle.source_path = str(path)
        return handle

    @classmethod
    def convert(
        cls,
        source: str | os.PathLike,
        destination: str | os.PathLike,
        *,
        verify: bool = True,
    ) -> list[Path]:
        """Rewrite a saved database in the current on-disk format.

        The upgrade path for legacy v1 directories: it makes them
        eligible for ``open(..., mmap=True)``'s zero-rebuild cold
        open.  ``verify`` checks source checksums when it has them.
        Returns the files written.

        Raises :class:`repro.errors.DatabaseFormatError` for the same
        source conditions as :meth:`open`.
        """
        with _translate_db_errors(source):
            return convert_database(source, destination, verify=verify)

    @classmethod
    def build(
        cls,
        refs: Sequence[str | os.PathLike],
        taxonomy: Taxonomy | str | os.PathLike,
        mapping: Mapping[str, int] | str | os.PathLike,
        params: MetaCacheParams | None = None,
        *,
        n_partitions: int = 1,
        batch_size: int = 32,
        progress: Callable[[BuildStats], None] | None = None,
    ) -> "MetaCache":
        """Build from reference FASTA files through the streaming pipeline.

        A thin client of :class:`repro.core.builder.DatabaseBuilder`:
        the files stream through a producer thread in bounded memory
        (peak resident is set by the insert batch, not the corpus).
        ``taxonomy`` may be a :class:`Taxonomy` or a directory holding
        ``nodes.dmp``/``names.dmp``; ``mapping`` a dict or a TSV path.
        ``progress`` is an optional callback receiving a
        :class:`~repro.api.records.BuildStats` snapshot per ingested
        reference.  Raises :class:`repro.errors.BuildError` for
        unmapped accessions or unknown taxa.
        """
        tax = _resolve_taxonomy(taxonomy)
        if not isinstance(mapping, Mapping):
            mapping = load_accession_mapping(mapping)
        with Timer() as t:
            with DatabaseBuilder(
                tax,
                params,
                n_partitions=n_partitions,
                on_progress=progress,
            ) as builder:
                builder.add_fasta(refs, dict(mapping), batch_size=batch_size)
                db = builder.finalize(condense=False)
        return cls(db, build_seconds=t.elapsed)

    @classmethod
    def ephemeral(
        cls,
        references: Iterable[tuple[str, "np.ndarray | str", int]],
        taxonomy: Taxonomy | str | os.PathLike,
        params: MetaCacheParams | None = None,
        *,
        n_partitions: int = 1,
        progress: Callable[[BuildStats], None] | None = None,
    ) -> "MetaCache":
        """On-the-fly mode: in-memory build, queryable immediately.

        ``references`` are ``(name, sequence, taxon_id)`` triples with
        the sequence either an encoded uint8 array or a plain string;
        the iterable is consumed lazily, so a generator streams
        through in bounded memory.  The hash table stays in the build
        layout (~20% slower queries than the condensed layout, Fig. 4)
        but there is no write+load cycle at all -- ``time_to_query``
        is just the build.  ``progress`` behaves as in :meth:`build`.
        Note that a ``session(workers=N)`` spills the database to a
        private v2 directory on first use, which condenses it.  Raises
        :class:`repro.errors.BuildError` for unknown taxa.
        """
        tax = _resolve_taxonomy(taxonomy)
        with Timer() as t:
            with DatabaseBuilder(
                tax,
                params,
                n_partitions=n_partitions,
                on_progress=progress,
            ) as builder:
                for name, seq, taxon in references:
                    builder.add_reference(
                        name,
                        encode_sequence(seq) if isinstance(seq, str) else seq,
                        taxon,
                    )
                db = builder.finalize(condense=False)
        return cls(db, build_seconds=t.elapsed)

    # -------------------------------------------------------------- extension

    def extend(
        self,
        refs: Sequence[str | os.PathLike] | None = None,
        mapping: Mapping[str, int] | str | os.PathLike | None = None,
        *,
        references: Iterable[tuple[str, "np.ndarray | str", int]] | None = None,
        batch_size: int = 32,
        progress: Callable[[BuildStats], None] | None = None,
    ) -> "MetaCache":
        """Add reference targets to this database, in place.

        The growth path: instead of reconstructing the index from
        scratch when the reference collection grows, the existing
        database is handed to
        :meth:`repro.core.builder.DatabaseBuilder.from_database` and
        the new targets stream in exactly as a continued build would
        have ingested them -- a database built from ``A`` then
        extended with ``B`` is byte-identical (saved bytes and
        classification output) to one built from ``A + B`` in one
        shot.  The existing references are never re-parsed or
        re-sketched (the dominant build cost); their index content is
        re-inserted into fresh tables, which costs O(index) time and
        a transient second copy of the index in memory.  Re-save with
        :meth:`save` to persist.

        Parameters
        ----------
        refs / mapping:
            reference FASTA files plus an accession -> taxid mapping
            (dict or TSV path), as in :meth:`build`.
        references:
            alternatively (or additionally, ingested after ``refs``),
            in-memory ``(name, sequence, taxon_id)`` triples as in
            :meth:`ephemeral`.
        batch_size / progress:
            as in :meth:`build`.

        Open sessions keep classifying against the pre-extension
        database; create a new session afterwards.  The handle's
        default sessions are closed here for that reason.  Returns
        ``self`` so calls chain into :meth:`save`.

        Raises
        ------
        repro.errors.BuildError
            for unmapped accessions or unknown taxa.  The handle is
            only switched to the extended database after a fully
            successful build: on failure it keeps serving the
            original, untouched database.
        ValueError
            when neither ``refs`` nor ``references`` is given, or
            ``refs`` is given without ``mapping``.
        """
        if self._router is not None:
            raise ConfigError(
                "cannot extend a sharded handle: the shard replicas serve "
                "the saved directory, which extend does not rewrite -- "
                "extend an unsharded handle, save, and reopen with shards"
            )
        if refs is None and references is None:
            raise ConfigError("extend needs refs (files) and/or references")
        if refs is not None and mapping is None:
            raise ConfigError("extend with refs requires a mapping")
        was_condensed = all(
            p.table is None for p in self.database.partitions
        )
        with Timer() as t:
            with DatabaseBuilder.from_database(
                self.database, on_progress=progress
            ) as builder:
                if refs is not None:
                    if not isinstance(mapping, Mapping):
                        mapping = load_accession_mapping(mapping)
                    builder.add_fasta(
                        refs, dict(mapping), batch_size=batch_size
                    )
                if references is not None:
                    for name, seq, taxon in references:
                        builder.add_reference(
                            name,
                            encode_sequence(seq) if isinstance(seq, str) else seq,
                            taxon,
                        )
                db = builder.finalize(condense=was_condensed)
        # sessions pinned to the replaced database are closed
        for session in list(self._sessions):
            session.close()
        self._default_session = None
        self.database = db
        self._build_seconds += t.elapsed
        return self

    def reload(
        self,
        path: str | os.PathLike,
        *,
        mmap: bool | None = None,
        verify: bool = False,
    ) -> "MetaCache":
        """Hot-swap this handle (and every live session) to a new index.

        Loads the database at ``path`` -- memory-mapped iff the
        current one is, unless ``mmap`` says otherwise -- repoints the
        handle and each open :class:`QuerySession` at it via
        :meth:`QuerySession.swap_database`, then closes the *old*
        database.  Batches already in flight finish against the old
        index (its unmap is deferred until their retain pins drain);
        every batch started after this call sees the new one.  The old
        index's file descriptors are released deterministically, so
        repeated reloads do not grow the process fd count.  Returns
        ``self`` for chaining.

        Raises
        ------
        ReloadError
            for sharded handles (``shards=N``): shard plans pin
            partition ids to the directory they were computed over,
            so a sharded service must be restarted on the new
            directory instead.
        repro.errors.DatabaseFormatError
            when ``path`` is missing or malformed; the handle keeps
            serving the current database untouched.
        """
        if self._router is not None:
            raise ReloadError(
                "sharded handles cannot hot-swap their index: the shard "
                "plan is pinned to the saved directory it was computed "
                "over; restart the service on the new directory instead"
            )
        if mmap is None:
            mmap = self.database.mmap_path is not None
        with _translate_db_errors(path):
            new_db = load_database(path, mmap=mmap, verify=verify)
        old = self.database
        self.database = new_db
        for session in list(self._sessions):
            if session.database is old:
                session.swap_database(new_db)
        self.source_path = str(path)
        old.close()
        return self

    # ---------------------------------------------------------------- queries

    def session(
        self,
        params: ClassificationParams | None = None,
        *,
        workers: int = 1,
    ) -> QuerySession:
        """Open a warm query session (cheap; make as many as you like).

        ``workers=N`` makes the session's ``classify_files`` run on N
        worker processes sharing the index zero-copy (see
        :mod:`repro.parallel`), byte-identical to ``workers=1``; no
        other call reads it.  :meth:`close` on this handle shuts down
        every pool its sessions started.  A handle opened with
        ``shards=N`` hands every session its shard router (shared; the
        handle keeps ownership) and refuses ``workers > 1``.
        """
        session = QuerySession(
            self.database, params=params, workers=workers, router=self._router
        )
        self._sessions.add(session)
        return session

    def classify(
        self, reads: Any, mates: Any = None, **kwargs: Any
    ) -> ClassificationRun:
        """One-shot convenience: classify through a shared default session."""
        if self._default_session is None:
            self._default_session = self.session()
        return self._default_session.classify(reads, mates, **kwargs)

    # ----------------------------------------------------------------- serve

    def serve(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        *,
        params: ClassificationParams | None = None,
        max_batch_reads: int = 4096,
        max_queued_reads: int = 65536,
        watch: "str | os.PathLike | None" = None,
        watch_interval: float = 2.0,
        block: bool = True,
        on_started: "Callable[[ClassificationServer], None] | None" = None,
    ) -> "ServerThread | None":
        """Serve classification over HTTP from this warm database.

        Starts the micro-batching server of :mod:`repro.server` on a
        dedicated session: concurrent ``POST /classify`` requests are
        coalesced into batches of up to ``max_batch_reads`` reads
        (whatever is queued when the dispatcher comes free; a lone
        request never waits), classified in this process on the warm
        index -- or through the shard router of a ``shards=N`` handle --
        and demultiplexed back to the callers; ``GET /healthz`` and
        ``GET /stats`` expose liveness and the latency/batch-shape
        counters.  The admission queue is bounded by
        ``max_queued_reads``; beyond it requests are answered 503
        with ``Retry-After``.

        With ``block=True`` (default) this runs the event loop on the
        calling thread until SIGINT/SIGTERM, then drains in-flight
        requests and returns -- the ``metacache-repro serve``
        subcommand is exactly this call.  With ``block=False`` it
        returns a started :class:`repro.server.ServerThread` (bound
        port in ``thread.server.port``); ``thread.stop()`` drains,
        shuts the server down, and closes the dedicated session.

        The served index can be hot-swapped without dropping requests:
        ``POST /admin/reload`` swaps to a new directory between
        micro-batches, and ``watch=DIR`` additionally polls ``DIR``
        every ``watch_interval`` seconds for new complete ``v<N>``
        version directories (see
        :func:`repro.core.io.publish_database`), reloading
        automatically -- the ``serve --watch`` mode.  Sharded handles
        (``shards=N``) refuse both with
        :class:`repro.errors.ReloadError`.

        ``on_started`` (optional callable receiving the
        :class:`~repro.server.ClassificationServer`) fires once the
        socket is bound -- with ``port=0`` that is when the real
        port becomes known.
        """
        from repro.server import ClassificationServer, ServerThread

        if watch is not None and self._router is not None:
            raise ReloadError(
                "serve(watch=...) is unavailable on a sharded handle: the "
                "shard plan cannot be hot-swapped; restart the service on "
                "new directories instead"
            )
        session = self.session(params)
        server = ClassificationServer(
            session,
            host=host,
            port=port,
            max_batch_reads=max_batch_reads,
            max_queued_reads=max_queued_reads,
            source_dir=self.source_path,
            watch_dir=watch,
            watch_interval=watch_interval,
        )
        if not block:
            thread = ServerThread(server, on_stop=session.close)
            started = False
            try:
                thread.start()
                started = True
            finally:
                if not started:  # the thread never owned the session
                    session.close()
            if on_started is not None:
                on_started(server)
            return thread
        try:
            server.run(on_started=on_started)
        finally:
            session.close()
        return None

    # ------------------------------------------------------------ persistence

    def save(self, path: str | os.PathLike, *, format: int = 2) -> list[Path]:
        """Write the database directory; returns the files created.

        One layout, mmap-ready: its cold open builds nothing (see
        :meth:`open`).  ``format`` accepts only ``2``.
        """
        return save_database(self.database, path, format=format)

    # -------------------------------------------------------------- metadata

    @property
    def params(self) -> MetaCacheParams:
        """The database's full parameter set (sketching is baked in)."""
        return self.database.params

    @property
    def taxonomy(self) -> Taxonomy:
        """The taxonomy the database classifies against."""
        return self.database.taxonomy

    @property
    def n_targets(self) -> int:
        """Number of reference targets (sequences/scaffolds) indexed."""
        return self.database.n_targets

    @property
    def n_partitions(self) -> int:
        """Number of database partitions (one per GPU in the paper)."""
        return self.database.n_partitions

    @property
    def router(self) -> "ShardRouter | None":
        """The shard router, when opened with ``shards=N`` (else None)."""
        return self._router

    @property
    def total_windows(self) -> int:
        """Total reference windows across all targets."""
        return self.database.total_windows

    @property
    def time_to_query(self) -> float:
        """Seconds from cold start until queries could run (Table 5)."""
        return self._build_seconds

    def info(self) -> DatabaseInfo:
        """Summarize the database (the CLI's ``info`` output, typed)."""
        db, p = self.database, self.database.params
        return DatabaseInfo(
            n_targets=db.n_targets,
            total_windows=db.total_windows,
            n_partitions=db.n_partitions,
            n_taxa=len(db.taxonomy),
            index_bytes=db.nbytes,
            k=p.sketch.k,
            sketch_size=p.sketch.sketch_size,
            window_size=p.sketch.window_size,
            window_stride=p.window_stride,
            max_locations_per_feature=p.max_locations_per_feature,
        )

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Release worker pools and the index itself.

        Safe to call twice; sessions created by :meth:`session` have
        their multi-process engines shut down here, so ``with
        MetaCache.open(path) as mc: mc.session(workers=4) ...`` never
        leaks processes or spill directories.  A shard router opened
        with ``shards=N`` is shut down here too (after the sessions
        that share it).  Finally the database is closed
        (:meth:`Database.close`): for ``mmap=True`` handles that
        returns the mapped files' descriptors to the OS now, so
        repeated open/close cycles hold the fd count flat.
        """
        for session in list(self._sessions):
            session.close()
        if self._router is not None:
            self._router.close()
        self.database.close()

    def __enter__(self) -> "MetaCache":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"MetaCache({self.n_targets} targets, {self.total_windows:,} windows, "
            f"{self.n_partitions} partition(s))"
        )
