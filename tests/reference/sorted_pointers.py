"""The one-column sorted-pointer index and its writer, kept as the oracle.

Until singletons were stored inline, a condensed partition held one
column of pointers: every feature, strictly ascending, and the running
sums of its list lengths into one dense array of 32-bit location words
(``part<P>.features.npy``, ``part<P>.offsets.npy``,
``part<P>.locations.npy`` beside ``part<P>.targets.npy``).
``repro.core.legacy`` still reads such directories (for ``convert``;
every open refuses them); nothing in ``src/`` writes them.

:class:`SortedPointers` is the old class, moved out of ``src/``
verbatim; :class:`OneColumnIndex` is the old ``CondensedIndex`` with
its ``from_content``, ``from_locations``, ``expand`` and ``retrieve``
verbatim but for the class name.  :func:`save_database_one_column` is
the old writer: it indexes the partition's canonical content
(``repro.core.io._condensed_content``) here, so what it writes is what
the old ``save_database`` wrote for the same database.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.database import (
    LOCATION_WORD_BITS,
    Database,
    location_word_fits,
    offsets_dtype,
)
from repro.core.io import _MANIFEST_NAME, _condensed_content, _write_metadata
from repro.util.segmented import gather_segments

from reference.index_ptr_table import write_entry_arrays

__all__ = ["SortedPointers", "OneColumnIndex", "save_database_one_column"]

# the largest storable feature: build tables clamp the sentinel onto it
_LAST_FEATURE = np.uint32(0xFFFFFFFE)


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
class OneColumnIndex:
    """The one-column layout: dense buckets + sorted pointers."""

    locations: np.ndarray
    pointers: SortedPointers
    targets: np.ndarray
    window_bits: int
    # targets << 32, the high half of every expanded location
    _target_words: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._target_words = np.asarray(self.targets, dtype=np.uint64) << np.uint64(32)

    @classmethod
    def from_content(
        cls, features: np.ndarray, lengths: np.ndarray, locations: np.ndarray
    ) -> "OneColumnIndex":
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
    ) -> "OneColumnIndex":
        """Pack uint64 ``target << 32 | window`` locations into words."""
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
        return cls(locations=words, pointers=pointers,
                   targets=targets, window_bits=window_bits)

    def expand(self, words: np.ndarray) -> np.ndarray:
        """uint64 ``target << 32 | window`` of this index's location words."""
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


_ONE_COLUMN_ARRAYS = ("locations", "targets", "features", "offsets")


def _write_partitions_one_column(db: Database, directory: Path) -> list[Path]:
    """Aligned ``.npy`` files per partition + the checksum manifest."""
    files: list[Path] = []
    manifest: dict = {"format_version": 2, "alignment": 4096, "partitions": []}
    for p, part in enumerate(db.partitions):
        cond = OneColumnIndex.from_content(*_condensed_content(part))
        pointers = cond.pointers
        n_locations = int(cond.locations.size)
        entry: dict = {
            "partition_id": p,
            "n_features": len(pointers),
            "n_locations": n_locations,
            "window_bits": cond.window_bits,
            "arrays": {},
        }
        dtypes = ("<u4", "<u4", "<u4", offsets_dtype(n_locations).str)
        arrays = (cond.locations, cond.targets, pointers.features, pointers.offsets)
        files += write_entry_arrays(
            directory, p, entry, zip(_ONE_COLUMN_ARRAYS, dtypes), arrays
        )
        manifest["partitions"].append(entry)
    manifest_path = directory / _MANIFEST_NAME
    manifest_path.write_text(json.dumps(manifest, indent=1))
    files.append(manifest_path)
    return files


def save_database_one_column(db: Database, directory) -> list[Path]:
    """A v2 directory of ``db`` with one-column partitions (``db`` keeps
    its layout)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    return _write_metadata(db, directory, 2) + _write_partitions_one_column(
        db, directory
    )
