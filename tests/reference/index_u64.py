"""The uint64 location writer, kept to make the legacy directories the loader reads.

Until partitions stored 32-bit location words, ``save_database`` wrote
every location of a partition as a uint64 ``target << 32 | window``
(``part<P>.locations.npy``, dtype ``<u8``) beside the pointer table's
two slot arrays, with no target map and no ``window_bits``.
``repro.core.io`` still reads such directories (packing the words in
memory); it no longer writes them.  :func:`save_database_u64` is that
writer, moved out of ``src/``: it indexes the partition's canonical
content with the retired pointer table of ``index_ptr_table.py`` and
writes the words expanded back to uint64, which is the array it wrote
before.  :class:`U64Index` is the old ``CondensedIndex.retrieve`` over
such a directory's arrays, read straight off disk -- the oracle
``query_features`` is compared to.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.database import Database
from repro.core.io import _MANIFEST_NAME, _condensed_content, _write_metadata
from repro.util.segmented import gather_segments
from repro.warpcore.probing import ProbingScheme
from repro.warpcore.single_value import SingleValueHashTable

from reference.index_ptr_table import (
    PointerTableIndex,
    pointer_table_entry,
    write_entry_arrays,
)

__all__ = ["save_database_u64", "U64Index"]

_U64_ARRAYS = (
    ("locations", "<u8"),
    ("ptr_keys", "<u4"),
    ("ptr_values", "<u8"),
)


def _write_partitions_u64(db: Database, directory: Path) -> list[Path]:
    """Aligned ``.npy`` files per partition + the checksum manifest."""
    files: list[Path] = []
    manifest: dict = {"format_version": 2, "alignment": 4096, "partitions": []}
    for p, part in enumerate(db.partitions):
        if part.condensed is None:
            part.condense()
        cond = PointerTableIndex.from_content(*_condensed_content(part))
        pointers = cond.pointers
        entry = pointer_table_entry(p, pointers, int(cond.locations.size))
        arrays = (cond.expand(cond.locations), pointers._keys, pointers._values)
        files += write_entry_arrays(directory, p, entry, _U64_ARRAYS, arrays)
        manifest["partitions"].append(entry)
    manifest_path = directory / _MANIFEST_NAME
    manifest_path.write_text(json.dumps(manifest, indent=1))
    files.append(manifest_path)
    return files


def save_database_u64(db: Database, directory) -> list[Path]:
    """A v2 directory of ``db`` with uint64 locations (condenses ``db``)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    return _write_metadata(db, directory, 2) + _write_partitions_u64(db, directory)


class U64Index:
    """One partition of a uint64 directory, queried the way it used to be."""

    def __init__(self, directory, pid: int) -> None:
        directory = Path(directory)
        entry = json.loads((directory / _MANIFEST_NAME).read_text())["partitions"][pid]

        def load(key: str) -> np.ndarray:
            return np.load(directory / entry["arrays"][key]["file"])

        self.locations = load("locations")
        assert self.locations.dtype == np.uint64
        pt = entry["pointer_table"]
        self.pointers = SingleValueHashTable.from_arrays(
            keys=load("ptr_keys"),
            values=load("ptr_values"),
            probing=ProbingScheme(
                n_groups=pt["n_groups"],
                group_size=pt["group_size"],
                max_probe_rounds=pt["max_probe_rounds"],
            ),
            size=pt["size"],
            dropped=pt["dropped"],
        )

    def retrieve(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(locations, offsets)`` of a feature batch, gathered as uint64."""
        packed = self.pointers.retrieve(features)[0]
        lengths = (packed & PointerTableIndex.LENGTH_MASK).astype(np.int64)
        starts = (packed >> PointerTableIndex.OFFSET_SHIFT).astype(np.int64)
        offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return gather_segments(self.locations, starts, lengths), offsets
