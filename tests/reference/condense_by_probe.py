"""Condensing a build table by one probe walk per key, kept as the oracle.

Before the condensed content was read off the slot arrays in one scan
(``MultiBucketHashTable.condensed_content``), saving, condensing and
growing a table all listed its distinct keys (``occupied_keys``) and
then walked the probe sequence of *every* key (``retrieve``).  These
two functions are that code -- the build-layout branch of
``repro.core.io._condensed_content`` and ``CondensedIndex.from_table``
-- moved out of ``src/`` verbatim, except that the uint64 locations
are now packed into the 32-bit words (``CondensedIndex.from_locations``);
``tests/test_condense_equivalence.py``
asserts that the scan returns the same arrays, element for element, and
that the pointer table built from them has the same slot arrays.
"""

from __future__ import annotations

import numpy as np

from repro.core.database import CondensedIndex
from repro.warpcore import MultiBucketHashTable, SingleValueHashTable

__all__ = ["condensed_content_by_probe", "condensed_index_by_probe"]


def condensed_content_by_probe(
    table: MultiBucketHashTable,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical (features, lengths, locations) of one build table."""
    features = table.occupied_keys()
    locations, offsets = table.retrieve(features)
    lengths = np.diff(offsets)
    return (
        features.astype(np.uint64),
        np.asarray(lengths, dtype=np.int64),
        np.asarray(locations, dtype=np.uint64),
    )


def condensed_index_by_probe(table: MultiBucketHashTable) -> CondensedIndex:
    """Compact a build-layout table into the condensed layout."""
    uniq = table.occupied_keys()
    values, offsets = table.retrieve(uniq)
    lengths = np.diff(offsets).astype(np.uint64)
    if lengths.size and int(lengths.max()) >= (1 << 24):
        raise ValueError("location list too long for condensed pointer")
    packed = (offsets[:-1].astype(np.uint64) << CondensedIndex.OFFSET_SHIFT) | lengths
    pointers = SingleValueHashTable(capacity_keys=max(16, uniq.size))
    pointers.insert(uniq, packed)
    return CondensedIndex.from_locations(values, pointers)
