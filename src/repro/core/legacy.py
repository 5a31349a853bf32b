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
  age are ignored);
- **one-column partitions**: a v2 manifest entry listing every feature
  in one ``features`` column with the running sums of the list
  lengths (``offsets``) into one dense array of 32-bit ``locations``,
  beside the target map -- singletons not yet inline.

Each is reduced to its canonical content (sorted features, list
lengths, locations dense in that order) and split into the two
columns; uint64 locations are packed by
:func:`~repro.core.database.pack_locations`, 32-bit words get the open
path's checks.  Any fault, or a partition that does
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
    _OFFSETS_DTYPES,
    _legacy_entry_layout,
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
        if not any(map(_legacy_entry_layout, entries)):
            return load_database(directory, verify=verify)
    taxonomy = _load_taxonomy(directory, targets, meta_path)
    return Database(params, taxonomy, [
        DatabasePartition(pid, None, (
            _v1_index(directory / f"database.cache{pid}", pid) if v1 else
            _pointer_table_index(directory, entries[pid], pid, verify=verify)
            if "ptr_keys" in entries[pid]["arrays"] else
            _one_column_index(directory, entries[pid], pid, verify=verify)
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
    except ValueError as exc:  # unsorted features, the sentinel, word overflow,
        # an empty list
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
    if np.any(features[1:] == features[:-1]):
        raise DatabaseFormatError(
            f"{manifest_path}: pointer table of partition {pid} is corrupt "
            "(a key stored in two slots)"
        )
    if window_bits is None:
        try:
            return CondensedIndex.from_content(features, lengths, locations)
        except ValueError as exc:
            raise DatabaseFormatError(
                f"{manifest_path}: partition {pid} cannot be packed ({exc}); "
                "rebuild it with more partitions"
            ) from exc
    return _split_words(
        features, lengths, locations, arrays["targets"], window_bits,
        manifest_path, pid,
    )


def _one_column_index(
    directory: Path, entry: dict, pid: int, *, verify: bool
) -> CondensedIndex:
    """Read a one-column partition (every feature, its running sums and
    one dense word array) and split it into the two columns."""
    manifest_path = directory / _MANIFEST_NAME
    try:
        arrays = {
            key: _open_array(
                directory, entry, key,
                _OFFSETS_DTYPES if key == "offsets" else ("<u4",),
                mmap=False, verify=verify,
            )
            for key in ("locations", "targets", "features", "offsets")
        }
        n_features, n_locations = int(entry["n_features"]), int(entry["n_locations"])
        window_bits = int(entry["window_bits"])
    except DatabaseFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DatabaseFormatError(
            f"{manifest_path}: corrupt manifest for partition {pid} ({exc!r})"
        ) from exc
    features, locations = arrays["features"], arrays["locations"]
    offsets = arrays["offsets"].astype(np.int64)
    if (
        features.size != n_features
        or offsets.size != n_features + 1
        or locations.size != n_locations
    ):
        raise DatabaseFormatError(
            f"{manifest_path}: partition {pid} array sizes disagree with manifest"
        )
    if int(offsets[0]) != 0 or int(offsets[-1]) != n_locations or np.any(
        offsets[1:] < offsets[:-1]
    ):
        raise DatabaseFormatError(
            f"{manifest_path}: offsets of partition {pid} do not run from 0 "
            "to its location count"
        )
    return _split_words(
        features, np.diff(offsets), locations, arrays["targets"], window_bits,
        manifest_path, pid,
    )


def _split_words(
    features: np.ndarray, lengths: np.ndarray, words: np.ndarray,
    targets: np.ndarray, window_bits: int, manifest_path: Path, pid: int,
) -> CondensedIndex:
    """The two columns of canonical 32-bit content, with the open
    path's deep checks."""
    try:
        pointers = SortedPointers.split(features, lengths, words)
    except ValueError as exc:  # unsorted or repeated features, empty lists
        raise DatabaseFormatError(
            f"{manifest_path}: pointers of partition {pid} are corrupt ({exc})"
        ) from exc
    return _word_index(pointers, targets, window_bits, manifest_path, pid, deep=True)
