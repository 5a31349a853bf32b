"""The pointer-table condensed index and its writer, kept as the oracle.

Until partitions stored sorted features and running-sum offsets,
``CondensedIndex`` mapped each feature to its packed
``(offset << 24 | length)`` pointer through a
:class:`~repro.warpcore.SingleValueHashTable` (the structure Section
5.1 uses on the GPU), and ``save_database`` wrote that table's slot
arrays verbatim as ``part<P>.ptr_keys.npy`` / ``part<P>.ptr_values.npy``
beside the location words and the target map, with a ``pointer_table``
block (probing geometry, size, drops) in the manifest.
``repro.core.io`` still reads such directories; it no longer writes
them.

:class:`PointerTableIndex` is the old ``CondensedIndex``, moved out of
``src/`` verbatim but for its name; :func:`unpack` is the old
``repro.core.io._unpack`` and :func:`save_database_ptr_table` the old
writer.  The writer takes the partition's canonical content from
``repro.core.io._condensed_content`` and indexes it here, so what it
writes is what the old ``save_database`` wrote for the same database.
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
)
from repro.core.io import (
    _MANIFEST_NAME,
    _condensed_content,
    _write_metadata,
    _write_npy_aligned,
)
from repro.util.segmented import gather_segments
from repro.warpcore.base import EMPTY_KEY, sort_by_key
from repro.warpcore.multi_bucket import MultiBucketHashTable
from repro.warpcore.single_value import SingleValueHashTable

__all__ = [
    "PointerTableIndex",
    "unpack",
    "save_database_ptr_table",
]


@dataclass
class PointerTableIndex:
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
    def from_table(cls, table: MultiBucketHashTable) -> "PointerTableIndex":
        """Compact a build-layout table into the condensed layout."""
        return cls.from_content(*table.condensed_content())

    @classmethod
    def from_content(
        cls, features: np.ndarray, lengths: np.ndarray, locations: np.ndarray
    ) -> "PointerTableIndex":
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
    ) -> "PointerTableIndex":
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
        """uint64 ``target << 32 | window`` of this index's location words."""
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


def unpack(cond: PointerTableIndex) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """``(features, lengths, words, dense)`` read off the slot arrays.

    One scan and one grouping sort of the occupied slots, no probing.
    ``dense``: the packed offsets are already the running sum of the
    lengths in feature order and cover ``cond.locations`` exactly, and
    ``words`` is then that array itself; any other packing (a
    hand-built index) is gathered into that order.
    """
    pointers = cond.pointers
    occupied = np.flatnonzero(pointers._probe_keys != EMPTY_KEY)
    features, order = sort_by_key(pointers._probe_keys.take(occupied))
    packed = pointers._probe_values.take(occupied.take(order))
    starts = (packed >> PointerTableIndex.OFFSET_SHIFT).astype(np.int64)
    lengths = (packed & PointerTableIndex.LENGTH_MASK).astype(np.int64)
    dense = np.array_equal(starts, np.cumsum(lengths) - lengths)
    dense = dense and int(lengths.sum()) == cond.locations.size
    words = cond.locations
    if not dense:
        words = gather_segments(words, starts, lengths)
    return features.astype(np.uint64), lengths, words, dense


_PTR_TABLE_ARRAYS = (
    ("locations", "<u4"),
    ("targets", "<u4"),
    ("ptr_keys", "<u4"),
    ("ptr_values", "<u8"),
)


def pointer_table_entry(
    p: int, pointers: SingleValueHashTable, n_locations: int, window_bits=None
) -> dict:
    """The manifest entry of one pointer-table partition, arrays to come.

    ``window_bits`` is left out when ``None`` (uint64 location words).
    """
    entry: dict = {
        "partition_id": p,
        "n_features": len(pointers),
        "n_locations": n_locations,
    }
    if window_bits is not None:
        entry["window_bits"] = window_bits
    entry.update({
        "pointer_table": {
            "n_groups": pointers.probing.n_groups,
            "group_size": pointers.probing.group_size,
            "max_probe_rounds": pointers.probing.max_probe_rounds,
            "size": len(pointers),
            "dropped": pointers._dropped,
        },
        "arrays": {},
    })
    return entry


def write_entry_arrays(directory: Path, p: int, entry: dict, names, arrays) -> list[Path]:
    """Write ``arrays`` as aligned ``part<p>.<name>.npy`` files into ``entry``."""
    files = []
    for (key, dtype), array in zip(names, arrays):
        array = np.ascontiguousarray(array, dtype=np.dtype(dtype))
        path = directory / f"part{p}.{key}.npy"
        entry["arrays"][key] = {
            "file": path.name,
            "dtype": dtype,
            "shape": list(array.shape),
            "crc32": _write_npy_aligned(path, array),
        }
        files.append(path)
    return files


def _write_partitions_ptr_table(db: Database, directory: Path) -> list[Path]:
    """Aligned ``.npy`` files per partition + the checksum manifest."""
    files: list[Path] = []
    manifest: dict = {"format_version": 2, "alignment": 4096, "partitions": []}
    for p, part in enumerate(db.partitions):
        cond = PointerTableIndex.from_content(*_condensed_content(part))
        pointers = cond.pointers
        entry = pointer_table_entry(
            p, pointers, int(cond.locations.size), cond.window_bits
        )
        arrays = (cond.locations, cond.targets, pointers._keys, pointers._values)
        files += write_entry_arrays(directory, p, entry, _PTR_TABLE_ARRAYS, arrays)
        manifest["partitions"].append(entry)
    manifest_path = directory / _MANIFEST_NAME
    manifest_path.write_text(json.dumps(manifest, indent=1))
    files.append(manifest_path)
    return files


def save_database_ptr_table(db: Database, directory) -> list[Path]:
    """A v2 directory of ``db`` with pointer-table partitions.

    ``db`` keeps its layout: a partition in the build layout is read
    through ``condensed_content``, not condensed in place.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    return _write_metadata(db, directory, 2) + _write_partitions_ptr_table(db, directory)
