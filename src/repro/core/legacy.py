"""Readers of the retired index layouts, reached only by ``convert``.

:func:`repro.core.io.load_database` refuses the layouts this package
wrote before its current one; :func:`convert_database`
(``metacache-repro convert``) reads them here and saves them through
the one writer, file for file what a fresh save writes:

- **format v1**: one ``database.cache<P>`` NPZ per partition holding
  sorted features, per-feature lengths and uint64 locations;
- **pointer-table partitions**: a v2 manifest entry listing the slot
  arrays of a single-value hash table (``ptr_keys`` / ``ptr_values``,
  values ``offset << 24 | length``) beside 32-bit location words and
  a target map, or beside uint64 locations (any other columns of that
  age are ignored).

Each is reduced to sorted pointers plus its locations; uint64
locations are packed by :meth:`CondensedIndex.from_locations`, 32-bit
words get the open path's checks.  Any fault, or a partition that does
not fit one 32-bit word, raises :class:`DatabaseFormatError`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.core.database import (
    CondensedIndex,
    Database,
    DatabasePartition,
    SortedPointers,
)
from repro.core.io import (
    _MANIFEST_NAME,
    _lists_pointer_table,
    _load_taxonomy,
    _manifest_entries,
    _open_array,
    read_metadata,
    _word_index,
    check_format_version,
    load_database,
    save_database,
)
from repro.errors import DatabaseFormatError
from repro.warpcore.base import EMPTY_KEY, sort_by_key

__all__ = ["convert_database"]


def convert_database(
    source: str | os.PathLike,
    destination: str | os.PathLike,
    *,
    verify: bool = True,
) -> list[Path]:
    """Rewrite a database directory in the current on-disk format.

    ``source`` is a legacy layout of the module docs or a current
    directory (loaded by ``load_database``); checksums are verified
    where it has them and ``verify`` is set.  Returns the files
    written.  ``source`` and ``destination`` must differ --
    conversion never rewrites a database in place.
    """
    if Path(source).resolve() == Path(destination).resolve():
        raise ValueError("convert_database cannot rewrite a database in place")
    return save_database(_load_any(Path(source), verify=verify), destination)


def _load_any(directory: Path, *, verify: bool) -> Database:
    """``directory`` in whatever layout it was written (always eager)."""
    meta_path = directory / "database.meta"
    meta = json.loads(meta_path.read_text())
    v1 = isinstance(meta, dict) and meta.get("format_version") == 1
    if not v1:
        check_format_version(meta, meta_path)
    params, targets, n_partitions = read_metadata(meta, meta_path)
    if not v1:
        entries = _manifest_entries(directory, n_partitions)
        if not any(map(_lists_pointer_table, entries)):
            return load_database(directory, verify=verify)
    taxonomy = _load_taxonomy(directory, targets, meta_path)
    return Database(params, taxonomy, [
        DatabasePartition(pid, None, (
            _v1_index(directory / f"database.cache{pid}", pid) if v1 else
            _pointer_table_index(directory, entries[pid], pid, verify=verify)
        )) for pid in range(n_partitions)
    ], targets)


def _v1_index(cache_path: Path, pid: int) -> CondensedIndex:
    """Index one partition of a v1 NPZ (its columns, read whole)."""
    try:
        with np.load(cache_path) as data:
            features = data["features"]
            lengths = data["lengths"]
            locations = data["locations"]
    except FileNotFoundError:
        raise
    except (OSError, ValueError, KeyError) as exc:
        raise DatabaseFormatError(
            f"{cache_path}: corrupt partition file ({exc})"
        ) from exc
    if int(lengths.sum()) != locations.size:
        raise DatabaseFormatError(
            f"{cache_path}: corrupt location array (partition {pid})"
        )
    try:
        return CondensedIndex.from_content(features, lengths, locations)
    except ValueError as exc:  # unsorted features, the sentinel, word overflow
        raise DatabaseFormatError(
            f"{cache_path}: invalid feature or location in partition {pid} "
            f"({exc})"
        ) from exc


def _pointer_table_index(
    directory: Path, entry: dict, pid: int, *, verify: bool
) -> CondensedIndex:
    """Read a pointer-table partition into sorted pointers.

    One scan and one grouping sort of the occupied slots, no probing.
    Every writer stored the offsets as the running sum of the lengths
    in feature order, so the location array is kept in its order; any
    other packing is a ``DatabaseFormatError``.
    """
    manifest_path = directory / _MANIFEST_NAME
    try:
        wide = entry["arrays"]["locations"]["dtype"] == "<u8"
        dtypes = {"locations": "<u8" if wide else "<u4", "ptr_keys": "<u4",
                  "ptr_values": "<u8", **({} if wide else {"targets": "<u4"})}
        arrays = {
            key: _open_array(directory, entry, key, (dtype,), mmap=False, verify=verify)
            for key, dtype in dtypes.items()
        }
        n_features, n_locations = int(entry["n_features"]), int(entry["n_locations"])
        window_bits = None if wide else int(entry["window_bits"])
    except DatabaseFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DatabaseFormatError(
            f"{manifest_path}: corrupt manifest for partition {pid} ({exc!r})"
        ) from exc
    locations = arrays["locations"]
    slot_keys, slot_values = arrays["ptr_keys"], arrays["ptr_values"]
    if slot_keys.shape != slot_values.shape or n_locations != locations.size:
        raise DatabaseFormatError(
            f"{manifest_path}: partition {pid} array sizes disagree with manifest"
        )
    occupied = np.flatnonzero(slot_keys != EMPTY_KEY)
    features, order = sort_by_key(slot_keys.take(occupied))
    packed = slot_values.take(occupied.take(order))
    starts = (packed >> np.uint64(24)).astype(np.int64)
    lengths = (packed & np.uint64((1 << 24) - 1)).astype(np.int64)
    if features.size != n_features or not np.array_equal(
        starts, np.cumsum(lengths) - lengths
    ):
        raise DatabaseFormatError(
            f"{manifest_path}: pointer table of partition {pid} does not "
            "point at its lists in feature order"
        )
    if int(lengths.sum()) != n_locations:
        raise DatabaseFormatError(
            f"{manifest_path}: corrupt location array (partition {pid})"
        )
    try:
        pointers = SortedPointers.from_lengths(features, lengths)
    except ValueError as exc:  # a key stored in two slots
        raise DatabaseFormatError(
            f"{manifest_path}: pointer table of partition {pid} is corrupt ({exc})"
        ) from exc
    if window_bits is not None:
        return _word_index(
            locations, pointers, arrays["targets"], window_bits,
            manifest_path, pid, deep=True,
        )
    try:
        return CondensedIndex.from_locations(locations, pointers)
    except ValueError as exc:
        raise DatabaseFormatError(
            f"{manifest_path}: partition {pid} cannot be packed ({exc}); "
            "rebuild it with more partitions"
        ) from exc
