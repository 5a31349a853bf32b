"""The retired index writers, kept to make the inputs ``convert`` is tested on.

Until the condensed layout got one serialized form, ``save_database``
could write two: **format v1**, one ``database.cache<P>`` NPZ per
partition holding sorted features, per-feature lengths and the dense
location array, and a **v2**
layout that stored those same features and lengths as two more
``.npy`` files *beside* the pointer table that already holds every key
and every length.  ``repro.core.legacy`` still reads both (for
``convert``; every open refuses them); nothing writes them.
``_save_partitions_v1`` is the old writer, moved out of ``src/``
verbatim; it reads each partition's canonical content through
``repro.core.io._condensed_content`` (features, lengths and the
locations expanded back to uint64), as the old writer did;
:func:`save_database_v1` and
:func:`save_database_v2_five_arrays` wrap them into directories the
way the old ``save_database`` laid them out.  Both layouts predate the
32-bit location words, so the five-array directory is built on the
uint64 writer of ``index_u64.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.database import Database
from repro.core.io import (
    _MANIFEST_NAME,
    _condensed_content,
    _write_metadata,
    _write_npy_aligned,
)

from reference.index_u64 import save_database_u64

__all__ = ["save_database_v1", "save_database_v2_five_arrays"]


def _save_partitions_v1(db: Database, directory: Path) -> list[Path]:
    """One ``database.cache<P>`` NPZ (``np.savez``: stored) per partition."""
    files: list[Path] = []
    for p, part in enumerate(db.partitions):
        features, lengths, locations = _condensed_content(part)
        path = directory / f"database.cache{p}"
        with open(path, "wb") as fh:
            np.savez(fh, features=features, lengths=lengths, locations=locations)
        files.append(path)
    return files


def save_database_v1(db: Database, directory) -> list[Path]:
    """A format-v1 directory of ``db`` (which keeps its layout)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    return _write_metadata(db, directory, 1) + _save_partitions_v1(db, directory)


def save_database_v2_five_arrays(db: Database, directory) -> list[Path]:
    """A v2 directory as written before the key/length columns were dropped.

    The uint64 three-array directory plus ``part<P>.features.npy`` and
    ``part<P>.lengths.npy`` with their manifest entries (condenses
    ``db`` in place, as every v2 save did).
    """
    directory = Path(directory)
    files = save_database_u64(db, directory)
    manifest_path = directory / _MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    for p, (part, entry) in enumerate(zip(db.partitions, manifest["partitions"])):
        features, lengths, _ = _condensed_content(part)
        for key, array, dtype in (
            ("features", features, "<u8"),
            ("lengths", lengths, "<i8"),
        ):
            array = np.ascontiguousarray(array, dtype=np.dtype(dtype))
            path = directory / f"part{p}.{key}.npy"
            entry["arrays"][key] = {
                "file": path.name,
                "dtype": dtype,
                "shape": list(array.shape),
                "crc32": _write_npy_aligned(path, array),
            }
            files.append(path)
    manifest_path.write_text(json.dumps(manifest, indent=1))
    return files
