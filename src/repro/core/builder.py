"""Streaming database construction: the :class:`DatabaseBuilder`.

The paper's headline contribution is ultra-fast database
*construction*: a two-phase producer/consumer pipeline (Fig. 2) in
which producers parse and sketch reference sequences while a consumer
performs massively parallel batched inserts.  This module is that
pipeline's composable host-side surface:

- :meth:`DatabaseBuilder.add_reference` ingests one already-encoded
  reference; :meth:`DatabaseBuilder.add_fasta` streams reference
  FASTA files through a producer thread, which parses them a chunk at
  a time and hands over blocks of references of about 64 kbp, each
  sketched here with one kernel call and then ingested target by
  target exactly as ``add_reference`` ingests one.  Either way peak
  memory is bounded by the insert batch, **not** the corpus:
  sequences are sketched inline and dropped as they arrive, and
  partition assignment is *online* greedy (lightest partition first,
  per arrival) so no collect-everything pass exists anywhere.  The
  producer parses while this consumer sketches and sorts; sketching
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
each feature keeps its first ``max_locations_per_feature`` locations
in global submission order, whatever the batch boundaries.  The paper
fills a multi-bucket hash table here because thousands of GPU threads
insert at once (Section 5.3); one host thread gets the same content
by sorting each flushed batch into a *run*, merging runs stably
(earlier run first) and cutting every feature to the cap at each
step.  :meth:`DatabaseBuilder.finalize` then holds the condensed
layout of Section 5.1, so a built database is queried and saved as
it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.core.build import accession_of
from repro.core.config import MetaCacheParams
from repro.core.database import (
    _LAST_FEATURE,
    CondensedIndex,
    Database,
    DatabasePartition,
    TargetRecord,
    location_word_fits,
)
from repro.errors import BuildError, ConfigError
from repro.hashing.minhash import SKETCH_PAD
from repro.hashing.sketch import sketch_packed_segments, sketch_sequence
from repro.taxonomy.tree import Taxonomy
from repro.util.bitops import pack_pairs
from repro.util.segmented import run_length_encode
from repro.warpcore.base import sort_by_key
from repro.warpcore.multi_bucket import MultiBucketHashTable

if TYPE_CHECKING:
    from repro.pipeline.producer import ReferenceBlock

__all__ = ["BuildStats", "DatabaseBuilder"]


@dataclass(frozen=True)
class BuildStats:
    """Progress/accounting snapshot of a :class:`DatabaseBuilder`.

    The feature counters implement the paper's "lost features"
    accounting: ``features_sketched`` valid sketch features were
    produced, of which ``features_inserted`` are stored in the index,
    ``features_dropped`` were discarded by the per-feature location
    cap (``max_locations_per_feature``, Section 4.1), and
    ``features_pending`` sit in the insert buffer awaiting the next
    batched flush; the three sum to ``features_sketched``.  A location
    past the cap counts as inserted until its run merges with the runs
    before it, so the counts are final after :meth:`finalize`.
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


class _Run(NamedTuple):
    """A partition's (feature, location) pairs sorted by feature, each
    feature's locations in submission order and within the cap."""

    keys: np.ndarray  # uint32 features, one per pair
    locs: np.ndarray  # uint64 target << 32 | window


_NO_PAIRS = _Run(np.zeros(0, dtype=np.uint32), np.zeros(0, dtype=np.uint64))


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
        windows buffered per partition before the batch is sorted
        into a run; bounds the builder's transient memory.
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
        # per partition: sorted (feature, location) runs, oldest first
        self._runs: list[list[_Run]] = [[] for _ in range(n_partitions)]
        self._pending: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {
            p: [] for p in range(n_partitions)
        }
        self._pending_windows = {p: 0 for p in range(n_partitions)}
        self._pending_features = 0
        self._n_windows = 0
        self._n_bases = 0
        self._features_sketched = 0
        self._features_dropped = 0
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
        partition loads, and takes each partition's saved content --
        already sorted by feature, every list in submission order and
        within the cap -- as that partition's first run.  Extending
        with new references then behaves exactly as if the original
        build had continued -- a database built from ``A`` then
        extended with ``B`` is byte-identical to one built from
        ``A + B`` in one shot.  Copying the content costs O(index) time
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
            keys = np.repeat(features.astype(np.uint32), lengths)
            builder._runs[part.partition_id].append(_Run(keys, locations))
            # historical accounting: everything the copied content
            # stores counts as already sketched; drops that happened
            # before a save are not recoverable
            builder._features_sketched += locations.size
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
        self._check_taxon(name, taxon_id)
        sketches = sketch_sequence(codes, self.params.sketch)
        n_windows = sketches.shape[0]
        feats, locs, _ = _pairs(sketches, [n_windows], len(self._targets))
        self._ingest(name, taxon_id, int(codes.size), n_windows, feats, locs)

    def add_fasta(
        self,
        paths: Sequence,
        accession_to_taxon: Mapping[str, int],
    ) -> None:
        """Stream reference FASTA files (plain or gzip'd) into the builder.

        One producer thread parses and encodes the files (in the
        given order) into a bounded queue of reference blocks while
        this thread -- the consumer -- sketches each block with one
        kernel call and ingests its targets in order, so at no point
        does more than a queue's worth of encoded sequences exist in
        memory; a failure on either side stops the producer after the
        block it is making.  Headers resolve to taxa through
        ``accession_to_taxon`` (the role NCBI's ``accession2taxid``
        files play); the full header becomes the target name.  Each
        target is ingested as :meth:`add_reference` ingests one: same
        checks, same order, same bytes.

        Raises
        ------
        BuildError
            when a header's accession has no mapping entry (file and
            header are named in the message) -- silently dropping
            references would corrupt every downstream accuracy
            number.  References ingested before the failure remain in
            the builder.
        repro.errors.InvalidReadError
            when a file is not FASTA (FASTQ, binary, sequence data
            before the first header, corrupt gzip); the path is named.
        RuntimeError
            when the builder was already finalized.
        """
        from repro.pipeline.producer import (
            REFERENCE_DEPTH,
            prefetched,
            reference_blocks,
        )

        self._check_open()
        # one producer thread walking the files in order: arrival order
        # is file order then in-file order, as in the one-shot path
        with prefetched(reference_blocks(list(paths)), REFERENCE_DEPTH) as blocks:
            for block in blocks:
                self._add_block(block, accession_to_taxon)

    def _add_block(
        self, block: "ReferenceBlock", accession_to_taxon: Mapping[str, int]
    ) -> None:
        """Sketch a block of references once, then ingest its targets in
        order."""
        packed = block.packed
        sketches, counts = sketch_packed_segments(
            packed.buffer, packed.offsets, self.params.sketch
        )
        feats, locs, ends = _pairs(sketches, counts, len(self._targets))
        targets = zip(
            block.headers,
            packed.segment_lengths.tolist(),
            counts.tolist(),
            [0, *ends[:-1]],
            ends,
        )
        for header, n_bases, n_windows, start, end in targets:
            acc = accession_of(header)
            if acc not in accession_to_taxon:
                raise BuildError(
                    f"{block.path}: accession {acc!r} of header {header!r} "
                    "not in accession_to_taxon mapping",
                    file=block.path,
                    header=header,
                )
            taxon_id = accession_to_taxon[acc]
            self._check_taxon(header, taxon_id)
            self._ingest(
                header, taxon_id, n_bases, n_windows, feats[start:end], locs[start:end]
            )

    def _check_taxon(self, name: str, taxon_id: int) -> None:
        if taxon_id not in self.taxonomy:
            raise BuildError(
                f"taxon {taxon_id} of target {name!r} not in taxonomy",
                header=name,
                taxon_id=taxon_id,
            )

    def _ingest(
        self,
        name: str,
        taxon_id: int,
        n_bases: int,
        n_windows: int,
        feats: np.ndarray,
        locs: np.ndarray,
    ) -> None:
        """Assign a sketched target a partition and queue its pairs, which
        name it as target ``len(self._targets)`` (see :func:`_pairs`)."""
        p = int(np.argmin(self._part_load))
        t = len(self._targets)
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
            self._features_sketched += feats.size
            self._pending_features += feats.size
            self._pending[p].append((feats, locs))
            self._pending_windows[p] += n_windows
            if self._pending_windows[p] >= self.insert_batch_windows:
                self._flush(p)
        if self.on_progress is not None:
            self.on_progress(self.stats)

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
        """Sort partition ``p``'s buffered pairs into a new run (the
        sentinel ``0xFFFFFFFF`` clamped onto ``0xFFFFFFFE``, as lookups
        clamp it).  The newest two runs merge while the older holds at
        most twice the newer's pairs: sizes stay geometric, so there
        are O(log n) runs and each pair is merged O(log n) times."""
        if not self._pending[p]:
            return
        feats = np.concatenate([f for f, _ in self._pending[p]])
        locs = np.concatenate([l for _, l in self._pending[p]])
        self._pending_features -= feats.size
        self._pending[p].clear()
        self._pending_windows[p] = 0
        keys, order = sort_by_key(np.minimum(feats.astype(np.uint32), _LAST_FEATURE))
        runs = self._runs[p]
        runs.append(self._cut(keys, locs.take(order)))
        while len(runs) > 1 and runs[-2].keys.size <= 2 * runs[-1].keys.size:
            newer = runs.pop()
            runs.append(self._merge(runs.pop(), newer))

    def _merge(self, older: "_Run", newer: "_Run") -> "_Run":
        """One sorted run of two, cut to the cap: each of ``newer``'s
        pairs goes after every ``older`` pair of its feature."""
        at = np.searchsorted(older.keys, newer.keys, side="right")
        return self._cut(
            np.insert(older.keys, at, newer.keys), np.insert(older.locs, at, newer.locs)
        )

    def _cut(self, keys: np.ndarray, locs: np.ndarray) -> "_Run":
        """A sorted run with each feature cut to its first
        ``max_locations_per_feature`` pairs; counts the drops."""
        cap = self.params.max_locations_per_feature
        # in a sorted run a pair is past the cap iff the pair ``cap``
        # places earlier has the same feature
        over = np.zeros(keys.size, dtype=bool)
        np.equal(keys[cap:], keys[:-cap], out=over[cap:])
        n_over = int(np.count_nonzero(over))
        if n_over:
            self._features_dropped += n_over
            keep = ~over
            keys, locs = keys[keep], locs[keep]
        return _Run(np.ascontiguousarray(keys), locs)

    def _check_open(self) -> None:
        if self._finalized:
            raise RuntimeError("builder already finalized")

    # ---------------------------------------------------------------- results

    @property
    def stats(self) -> BuildStats:
        """Current accounting snapshot (cheap; no flush is forced)."""
        # every sketched pair is pending, in a run, or cut at the cap
        inserted = (
            self._features_sketched - self._features_dropped - self._pending_features
        )
        return BuildStats(
            n_targets=len(self._targets),
            n_windows=self._n_windows,
            n_bases=self._n_bases,
            features_sketched=self._features_sketched,
            features_inserted=inserted,
            features_dropped=self._features_dropped,
            features_pending=self._pending_features,
        )

    def finalize(self, condense: bool = True) -> Database:
        """Flush and assemble the :class:`Database`.

        Every partition's pending pairs are flushed and its runs merged
        into one, whose features, list lengths and locations go to
        :meth:`CondensedIndex.from_content`: the database is in the
        layout a saved one loads in, queryable at once (on-the-fly
        mode) and saved as it is.  ``condense=False`` instead inserts
        that content once into a :class:`MultiBucketHashTable` sized for
        it (one slot per location at most), for
        ``benchmarks/e2e/traced.py``.

        Returns the finished database.  The builder is closed
        afterwards: further ``add_*``/``finalize`` calls raise
        ``RuntimeError``.
        """
        self._check_open()
        for p in range(self.n_partitions):
            self._flush(p)
        self._finalized = True

        partitions: list[DatabasePartition] = []
        for p, runs in enumerate(self._runs):
            run = reduce(self._merge, runs) if runs else _NO_PAIRS
            runs.clear()
            features, lengths = run_length_encode(run.keys)
            if condense:
                index = CondensedIndex.from_content(features, lengths, run.locs)
                partitions.append(DatabasePartition(p, None, index))
                continue
            table = MultiBucketHashTable(
                capacity_values=run.keys.size,
                bucket_size=self.params.bucket_size,
                group_size=self.params.group_size,
                max_load_factor=self.params.max_load_factor,
                max_locations_per_key=self.params.max_locations_per_feature,
            )
            table.insert(run.keys, run.locs)
            partitions.append(DatabasePartition(p, table))
        return Database(
            params=self.params,
            taxonomy=self.taxonomy,
            partitions=partitions,
            targets=self._targets,
        )

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


def _pairs(
    sketches: np.ndarray, counts: Sequence[int] | np.ndarray, first_target: int
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The valid features of consecutive targets' sketch rows and their
    locations ``target << 32 | window``.

    Target ``i`` owns the next ``counts[i]`` rows and is numbered
    ``first_target + i``.  Returns ``(features, locations, ends)``:
    target ``i``'s pairs are ``[ends[i - 1], ends[i])``, row by row and
    within a row in sketch order.
    """
    counts = np.asarray(counts, dtype=np.int64)
    valid = sketches != SKETCH_PAD
    per_row = np.count_nonzero(valid, axis=1)
    row_ends = np.cumsum(counts)
    first_row = np.repeat(row_ends - counts, counts)
    windows = np.arange(sketches.shape[0], dtype=np.int64) - first_row
    targets = np.repeat(np.arange(counts.size, dtype=np.int64) + first_target, counts)
    pair_ends = np.zeros(per_row.size + 1, dtype=np.int64)
    np.cumsum(per_row, out=pair_ends[1:])
    return (
        sketches[valid],
        np.repeat(pack_pairs(targets, windows), per_row),
        pair_ends[row_ends].tolist(),
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

