"""Database persistence: one index format, one writer (Section 4.3).

A saved database is a directory holding the condensed layout (Section
5.1) exactly as a query uses it: per partition two sorted columns of
32-bit location words and the partition's target map.  Arrays are
plain page-aligned ``.npy`` files described by a ``manifest.json``
with per-array CRC-32 checksums::

    database.meta               # JSON: format_version=2, params, targets
    nodes.dmp, names.dmp        # NCBI-format taxonomy dumps
    manifest.json               # per-array files/dtypes/shapes/CRC-32s,
                                # feature/location counts, window_bits
    part<P>.single.features.npy # uint32, strictly ascending features
                                # that own exactly one location
    part<P>.single.words.npy    # uint32, that one location word each
    part<P>.multi.features.npy  # uint32, strictly ascending features
                                # that own two or more locations
    part<P>.multi.offsets.npy   # n_multi + 1 running sums into
                                # multi.locations: uint32 below 2^32
                                # locations, else uint64
    part<P>.multi.locations.npy # uint32 words, the multis' lists dense
                                # in feature order
    part<P>.targets.npy         # uint32, ascending target ids present in
                                # the partition (local target -> target id)

A location word is ``local << window_bits | window``: ``local`` is the
target's rank in the target map and ``window_bits`` (in the manifest
entry) the bit length of the partition's largest window id; both
follow from the content.  Feature ``multi.features[i]`` owns
``multi.locations[offsets[i]:offsets[i + 1]]``; no feature is in both
columns.  A lookup is one binary search over the singles and one over
the multis for the singles' misses.  The manifest entry lists the six
arrays by these keys, records the offsets dtype the way it records
every dtype, and counts ``n_features`` and ``n_locations`` over both
columns.

``load_database`` wraps the arrays as they are -- **zero rebuild**;
with ``mmap=True`` also **zero copy**: cold open is O(metadata), the
index pages fault in on first lookup, and any number of processes
opening the same directory share one physical copy through the page
cache.  Partition files load under any device assignment, mirroring
"partitioned databases generated by the CPU version can be loaded by
the GPU version and vice versa".

This is the one layout that opens.  A directory written before it (a
format v1 directory, or a v2 manifest entry listing the slot arrays of
a pointer table or the one ``features`` / ``offsets`` column that kept
singletons behind pointers too) is refused with :class:`DatabaseFormatError` before
any array is opened; :mod:`repro.core.legacy`, reached only by
``convert`` (``metacache-repro convert``), reads those and rewrites
them in this layout.  :func:`check_format_version`,
:func:`read_metadata` and :func:`read_manifest` are the readers every
other module (the shard planner) goes through, so the format is
parsed here alone.
"""

from __future__ import annotations

import json
import os
import re
import secrets
import shutil
import struct
import zlib
from pathlib import Path

import numpy as np

from repro.core.config import ClassificationParams, MetaCacheParams
from repro.errors import DatabaseFormatError
from repro.core.database import (
    CondensedIndex,
    Database,
    DatabasePartition,
    SortedPointers,
    TargetRecord,
    location_word_fits,
    offsets_dtype,
)
from repro.hashing.sketch import SketchParams
from repro.taxonomy.ncbi import load_ncbi_dump, write_ncbi_dump
from repro.taxonomy.tree import Taxonomy

__all__ = [
    "save_database",
    "load_database",
    "check_format_version",
    "read_metadata",
    "read_manifest",
    "publish_database",
    "version_directories",
    "latest_version",
    "FORMAT_V2",
]

FORMAT_V2 = 2  # the one format written and opened
_MANIFEST_NAME = "manifest.json"
_NPY_ALIGN = 4096  # data payload starts on a page boundary
_NPY_MAGIC = b"\x93NUMPY\x01\x00"

# manifest key == file suffix of every per-partition array, in file
# order (CondensedIndex.arrays); all are <u4 but the offsets, whose
# dtype the manifest records
_ARRAYS = (
    "single.features", "single.words", "multi.features", "multi.offsets",
    "multi.locations", "targets",
)
_OFFSETS = "multi.offsets"
_OFFSETS_DTYPES = ("<u4", "<u8")


def save_database(
    db: Database, directory: str | os.PathLike, *, format: int = FORMAT_V2
) -> list[Path]:
    """Write the database **crash-atomically**; returns the files created.

    Writes the layout described in the module docs; loading it (with
    or without ``mmap=True``) builds nothing: the arrays are the index,
    and a built database already holds them.  ``format`` is kept for
    callers that spell it out and accepts only ``2`` (``ValueError``
    otherwise).  Raises :class:`DatabaseFormatError` when
    ``directory`` is the one backing a database opened with
    ``mmap=True`` -- the save would rewrite files under live maps.

    Every file is first written into a hidden temp sibling directory
    (``.<name>.saving-<pid>-<token>``), which is renamed into place in
    one ``os.replace`` once complete, so a process killed mid-save
    never leaves a half-written (or half-overwritten) ``directory``:
    readers see either the previous database or the new one, and
    re-saving a smaller database cannot strand stale partition files
    from the larger predecessor.  An existing non-empty ``directory``
    is replaced only when it contains a ``database.meta`` (i.e. *is* a
    database); anything else is refused rather than clobbered.
    Leftover ``.saving-*`` / ``.old-*`` siblings from earlier crashed
    saves of the same directory are swept first -- concurrent saves to
    one target are not supported.
    """
    if format != FORMAT_V2:
        raise ValueError(
            f"unknown database format {format!r} (supported: {FORMAT_V2})"
        )
    directory = Path(directory)
    if db.mmap_path is not None and directory.resolve() == Path(
        db.mmap_path
    ).resolve():
        # the extend-then-resave footgun: this database's index arrays
        # are live memory maps of exactly the files a save would
        # truncate and rewrite underneath them
        raise DatabaseFormatError(
            f"{directory}: cannot overwrite the directory backing this "
            "memory-mapped database; save to a different directory, or "
            "reopen without mmap=True first"
        )
    directory.parent.mkdir(parents=True, exist_ok=True)
    _sweep_stale_siblings(directory)
    staging = directory.parent / (
        f".{directory.name}.saving-{os.getpid()}-{secrets.token_hex(4)}"
    )
    staging.mkdir()
    try:
        files = _write_database(db, staging, format)
        _publish_directory(staging, directory)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return [directory / f.name for f in files]


def _write_database(db: Database, directory: Path, format: int) -> list[Path]:
    """Write every database file into ``directory`` (no atomicity)."""
    return _write_metadata(db, directory, format) + _write_partitions(db, directory)


def _write_metadata(db: Database, directory: Path, format: int) -> list[Path]:
    """``database.meta`` and the taxonomy dumps."""
    meta = {
        "format_version": format,
        "params": {
            "k": db.params.sketch.k,
            "sketch_size": db.params.sketch.sketch_size,
            "window_size": db.params.sketch.window_size,
            "max_locations_per_feature": db.params.max_locations_per_feature,
            "bucket_size": db.params.bucket_size,
            "group_size": db.params.group_size,
            "max_load_factor": db.params.max_load_factor,
            "max_candidates": db.params.classification.max_candidates,
            "min_hits": db.params.classification.min_hits,
            "lca_trigger_fraction": db.params.classification.lca_trigger_fraction,
        },
        "n_partitions": db.n_partitions,
        "targets": [
            {
                "target_id": t.target_id,
                "name": t.name,
                "taxon_id": t.taxon_id,
                "length": t.length,
                "n_windows": t.n_windows,
                "partition_id": t.partition_id,
            }
            for t in db.targets
        ],
    }
    meta_path = directory / "database.meta"
    meta_path.write_text(json.dumps(meta, indent=1))
    nodes_path = directory / "nodes.dmp"
    names_path = directory / "names.dmp"
    write_ncbi_dump(db.taxonomy, nodes_path, names_path)
    return [meta_path, nodes_path, names_path]


def _publish_directory(staging: Path, directory: Path) -> None:
    """Atomically promote a fully-written staging dir to ``directory``.

    When the target is absent (or an empty leftover ``mkdir``), a
    single ``os.replace`` publishes it.  When a database already
    lives there it is renamed aside first and removed only after the
    new directory is in place, so no reader ever observes a mix of
    old and new files -- and stale partition files of a larger
    predecessor go with it.  A non-empty target that is *not* a
    database directory is refused.
    """
    try:
        os.replace(staging, directory)
    except OSError:
        if not (directory / "database.meta").exists():
            raise DatabaseFormatError(
                f"{directory}: refusing to replace an existing non-database "
                "directory; remove it or save elsewhere"
            ) from None
        retired = directory.parent / (
            f".{directory.name}.old-{os.getpid()}-{secrets.token_hex(4)}"
        )
        os.replace(directory, retired)
        os.replace(staging, directory)
        shutil.rmtree(retired, ignore_errors=True)
    _fsync_dir(directory.parent)


def _sweep_stale_siblings(directory: Path) -> None:
    """Remove debris of crashed saves of ``directory`` (best effort)."""
    pattern = re.compile(rf"^\.{re.escape(directory.name)}\.(saving|old)-")
    try:
        siblings = list(directory.parent.iterdir())
    except OSError:
        return
    for sibling in siblings:
        if pattern.match(sibling.name) and sibling.is_dir():
            shutil.rmtree(sibling, ignore_errors=True)


def _fsync_dir(path: Path) -> None:
    """Flush a directory entry rename to stable storage (best effort)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - unusual filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync on dirs may be unsupported
        pass
    finally:
        os.close(fd)


def _condensed_content(
    part: DatabasePartition,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sorted features, lengths, uint64 locations dense in that order)."""
    if part.condensed is None:
        return part.table.condensed_content()
    cond = part.condensed
    features, lengths, words = cond.content()
    return features, lengths, cond.expand(words)


def _write_partitions(db: Database, directory: Path) -> list[Path]:
    """Aligned ``.npy`` files per partition + the checksum manifest.

    Every partition a build or a load produces is written from the
    arrays it holds (both columns are always dense, so nothing is
    re-pointed); only a partition holding a build-layout table
    (``finalize(condense=False)``) is condensed in place first.
    """
    files: list[Path] = []
    manifest: dict = {"format_version": FORMAT_V2, "alignment": _NPY_ALIGN,
                      "partitions": []}
    for p, part in enumerate(db.partitions):
        if part.condensed is None:
            part.condense()
        cond = part.condensed
        arrays = cond.arrays()
        entry: dict = {
            "partition_id": p,
            "n_features": len(cond.pointers),
            "n_locations": cond.pointers.n_locations,
            "window_bits": cond.window_bits,
            "arrays": {},
        }
        for key, array in arrays.items():
            dtype = (
                offsets_dtype(arrays["multi.locations"].size).str
                if key == _OFFSETS else "<u4"
            )
            array = np.ascontiguousarray(array, dtype=np.dtype(dtype))
            path = directory / f"part{p}.{key}.npy"
            entry["arrays"][key] = {
                "file": path.name,
                "dtype": dtype,
                "shape": list(array.shape),
                "crc32": _write_npy_aligned(path, array),
            }
            files.append(path)
        manifest["partitions"].append(entry)
    manifest_path = directory / _MANIFEST_NAME
    manifest_path.write_text(json.dumps(manifest, indent=1))
    files.append(manifest_path)
    return files


def _write_npy_aligned(
    path: Path, array: np.ndarray, align: int = _NPY_ALIGN
) -> int:
    """Write a 1-D array as an uncompressed, data-aligned ``.npy``.

    The format-1.0 header is space-padded so the data payload starts
    on an ``align``-byte boundary -- ``np.load(..., mmap_mode="r")``
    then maps the payload page-aligned, the layout mmap readers want.
    Returns the CRC-32 of the payload bytes (the manifest checksum).
    """
    array = np.ascontiguousarray(array)
    descr = np.lib.format.dtype_to_descr(array.dtype)
    header = "{'descr': %r, 'fortran_order': False, 'shape': %r, }" % (
        descr,
        array.shape,
    )
    base = len(_NPY_MAGIC) + 2  # magic + uint16 header-length field
    pad = (-(base + len(header) + 1)) % align
    header = header + " " * pad + "\n"
    if len(header) > 0xFFFF:  # pragma: no cover - align is always < 64k
        raise ValueError("npy header too large for format 1.0")
    with open(path, "wb") as fh:
        fh.write(_NPY_MAGIC)
        fh.write(struct.pack("<H", len(header)))
        fh.write(header.encode("latin1"))
        fh.write(array)  # the array's own buffer: no staging copy
    return zlib.crc32(array)


def check_format_version(meta: object, meta_path: Path) -> None:
    """Validate ``format_version``, distinguishing the failure modes.

    A directory without an integer ``format_version`` is *not a
    database*; an integer above :data:`FORMAT_V2` was *written by a
    newer version* of this package; ``1`` is the legacy NPZ layout,
    which only ``metacache-repro convert`` reads.  Every branch raises
    :class:`DatabaseFormatError` carrying the offending path.
    """
    if not isinstance(meta, dict) or "format_version" not in meta:
        raise DatabaseFormatError(
            f"{meta_path}: not a MetaCache database directory "
            "(metadata has no format_version)"
        )
    version = meta["format_version"]
    if isinstance(version, bool) or not isinstance(version, int) or version < 1:
        raise DatabaseFormatError(
            f"{meta_path}: not a MetaCache database directory "
            f"(format_version is {version!r}, expected a positive integer)"
        )
    if version > FORMAT_V2:
        raise DatabaseFormatError(
            f"{meta_path}: database format v{version} was written by a newer "
            f"version of metacache-repro (this build opens v{FORMAT_V2}); "
            "upgrade the package, or re-save the database with the newer tool "
            "in a supported format"
        )
    if version < FORMAT_V2:
        raise _legacy_layout_error(meta_path, f"format v{version}")


def _legacy_layout_error(path: Path, layout: str) -> DatabaseFormatError:
    """The refusal of a layout that only ``convert`` reads."""
    return DatabaseFormatError(
        f"{path}: {layout} is a legacy index layout that is no longer opened; "
        "upgrade the directory with `metacache-repro convert --db DIR --out NEW`"
    )


def load_database(
    directory: str | os.PathLike,
    *,
    mmap: bool = False,
    verify: bool = False,
) -> Database:
    """Load a saved database in the condensed query layout.

    Parameters
    ----------
    directory:
        the database directory, in the layout of the module docs.
    mmap:
        memory-map the index arrays instead of reading them: cold open
        touches no index bytes, and concurrent processes opening the
        same directory share one physical copy through the page cache.
    verify:
        check every array against its manifest CRC-32 (reads the
        full payload; defeats the O(1) open, so off by default --
        ``convert`` turns it on).

    Raises :class:`DatabaseFormatError` on malformed content and on a
    legacy layout (naming ``metacache-repro convert``) before any
    array is opened; a missing ``database.meta`` surfaces as the raw
    ``FileNotFoundError`` and garbled JSON as ``json.JSONDecodeError``
    (long-standing contract; the API facade translates them at the
    ``repro.api`` boundary).
    """
    directory = Path(directory)
    meta_path = directory / "database.meta"
    meta = json.loads(meta_path.read_text())
    check_format_version(meta, meta_path)
    params, targets, n_partitions = read_metadata(meta, meta_path)
    entries = read_manifest(directory, n_partitions)
    taxonomy = _load_taxonomy(directory, targets, meta_path)
    db = Database(params, taxonomy, [
        DatabasePartition(pid, None, _load_partition(
            directory, entry, pid, mmap=mmap, verify=verify
        )) for pid, entry in enumerate(entries)
    ], targets)
    if mmap:
        db.mmap_path = directory
    return db


def read_metadata(
    meta: dict, meta_path: Path
) -> tuple[MetaCacheParams, list[TargetRecord], int]:
    """Parameters, target records and partition count of ``database.meta``."""
    try:
        p = meta["params"]
        params = MetaCacheParams(
            sketch=SketchParams(
                k=p["k"], sketch_size=p["sketch_size"], window_size=p["window_size"]
            ),
            max_locations_per_feature=p["max_locations_per_feature"],
            bucket_size=p["bucket_size"],
            group_size=p["group_size"],
            max_load_factor=p["max_load_factor"],
            classification=ClassificationParams(
                max_candidates=p["max_candidates"],
                min_hits=p["min_hits"],
                lca_trigger_fraction=p["lca_trigger_fraction"],
            ),
        )
        targets = [
            TargetRecord(
                target_id=t["target_id"],
                name=t["name"],
                taxon_id=t["taxon_id"],
                length=t["length"],
                n_windows=t["n_windows"],
                partition_id=t["partition_id"],
            )
            for t in meta["targets"]
        ]
        return params, targets, int(meta["n_partitions"])
    except (KeyError, TypeError) as exc:
        raise DatabaseFormatError(f"{meta_path}: incomplete metadata ({exc!r})") from exc


def _load_taxonomy(
    directory: Path, targets: list[TargetRecord], meta_path: Path
) -> Taxonomy:
    """The directory's taxonomy dumps; every target's taxon must be in them."""
    taxonomy = load_ncbi_dump(directory / "nodes.dmp", directory / "names.dmp")
    for t in targets:
        if t.taxon_id not in taxonomy:
            raise DatabaseFormatError(
                f"{meta_path}: target {t.target_id} ({t.name!r}) names taxon "
                f"{t.taxon_id}, which is not in nodes.dmp"
            )
    return taxonomy


def _manifest_entries(directory: Path, n_partitions: int) -> list[dict]:
    """The manifest's partition entries, one per metadata partition."""
    manifest_path = directory / _MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text())
    except FileNotFoundError as exc:
        raise DatabaseFormatError(
            f"{manifest_path}: format v2 database is missing its manifest"
        ) from exc
    except json.JSONDecodeError as exc:
        raise DatabaseFormatError(f"{manifest_path}: corrupt manifest ({exc})") from exc
    parts = manifest.get("partitions") if isinstance(manifest, dict) else None
    if not isinstance(parts, list) or len(parts) != n_partitions:
        raise DatabaseFormatError(
            f"{manifest_path}: manifest lists "
            f"{len(parts) if isinstance(parts, list) else 0} partition(s), "
            f"metadata says {n_partitions}"
        )
    return parts


def _legacy_entry_layout(entry) -> str | None:
    """What legacy layout a manifest entry lists, if any."""
    arrays = entry.get("arrays") if isinstance(entry, dict) else None
    if not isinstance(arrays, dict):
        return None
    if "ptr_keys" in arrays:
        return "hash-table pointers"
    if "offsets" in arrays:
        return "one pointer column, singletons not inline"
    return None


def read_manifest(directory: Path, n_partitions: int) -> list[dict]:
    """:func:`_manifest_entries`, refusing partitions of a legacy layout."""
    entries = _manifest_entries(directory, n_partitions)
    for pid, entry in enumerate(entries):
        layout = _legacy_entry_layout(entry)
        if layout is not None:
            raise _legacy_layout_error(
                directory / _MANIFEST_NAME, f"partition {pid} ({layout})"
            )
    return entries


def _open_array(
    directory: Path, entry: dict, key: str, allowed: tuple[str, ...], *,
    mmap: bool, verify: bool,
) -> np.ndarray:
    """Open manifest array ``key`` of an ``allowed`` dtype (a corrupt
    entry raises ``KeyError`` / ``TypeError`` / ``ValueError``)."""
    spec = entry["arrays"][key]
    if spec["dtype"] not in allowed:
        raise ValueError(
            f"{key} of dtype {spec['dtype']!r} (expected one of {allowed})"
        )
    return _open_npy(
        directory / str(spec["file"]), np.dtype(spec["dtype"]),
        tuple(int(n) for n in spec["shape"]),
        crc=spec["crc32"] if verify else None, mmap=mmap,
    )


def _load_partition(
    directory: Path, entry: dict, pid: int, *, mmap: bool, verify: bool
) -> CondensedIndex:
    """Map (or read) one partition's arrays and wrap them, copy-free."""
    manifest_path = directory / _MANIFEST_NAME
    try:
        arrays = {
            key: _open_array(
                directory, entry, key,
                _OFFSETS_DTYPES if key == _OFFSETS else ("<u4",),
                mmap=mmap and key != "targets",  # the map is metadata-sized
                verify=verify,
            )
            for key in _ARRAYS
        }
        n_features, n_locations = int(entry["n_features"]), int(entry["n_locations"])
        window_bits = int(entry["window_bits"])
    except DatabaseFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DatabaseFormatError(
            f"{manifest_path}: corrupt manifest for partition {pid} ({exc!r})"
        ) from exc
    targets = arrays.pop("targets")
    pointers = SortedPointers(*arrays.values())
    # header-only checks (no payload reads; mmap open stays O(metadata))
    if (
        pointers.single_words.size != pointers.single_features.size
        or pointers.multi_offsets.size != pointers.multi_features.size + 1
        or len(pointers) != n_features
        or pointers.n_locations != n_locations
    ):
        raise DatabaseFormatError(
            f"{manifest_path}: partition {pid} array sizes disagree with manifest"
        )
    # deep checks whenever the payload is (or will be) resident anyway:
    # eager loads and verify=True check the columns and words queries
    # read; a plain mmap open skips them by contract (cold open must
    # not fault the index in), and a lookup checks the offsets it
    # reads instead
    return _word_index(
        pointers, targets, window_bits, manifest_path, pid,
        deep=not mmap or verify,
    )


def _word_index(
    pointers: SortedPointers, targets: np.ndarray, window_bits: int,
    manifest_path: Path, pid: int, *, deep: bool,
) -> CondensedIndex:
    """Wrap a partition of 32-bit words after checking its target map;
    ``deep``: also both columns and every word (reads the payload)."""
    # 32: the widest window field a uint32 word has room for
    if not (0 <= window_bits <= 32 and location_word_fits(
        targets.size, (1 << window_bits) - 1
    )):
        raise DatabaseFormatError(
            f"{manifest_path}: partition {pid} declares window_bits "
            f"{window_bits} for {targets.size} targets"
        )
    if np.any(targets[1:] <= targets[:-1]):
        raise DatabaseFormatError(
            f"{manifest_path}: target map of partition {pid} is not strictly "
            "ascending"
        )
    if deep:
        try:
            pointers.validate()
        except ValueError as exc:
            raise DatabaseFormatError(
                f"{manifest_path}: pointers of partition {pid} do not match "
                f"its location arrays ({exc})"
            ) from exc
        for words in (pointers.single_words, pointers.multi_locations):
            if words.size and int(words.max()) >> window_bits >= targets.size:
                raise DatabaseFormatError(
                    f"{manifest_path}: location words of partition {pid} name "
                    "targets outside its target map"
                )
    return CondensedIndex(pointers=pointers, targets=targets, window_bits=window_bits)


def _open_npy(
    path: Path, dtype: np.dtype, shape: tuple[int, ...], *, crc, mmap: bool
) -> np.ndarray:
    """Open one manifest array, validating layout (and optionally CRC).

    Zero-size arrays are always read eagerly (an empty payload cannot
    be mapped); everything else honors ``mmap``.
    """
    want_mmap = mmap and int(np.prod(shape, dtype=np.int64)) > 0
    try:
        array = np.load(path, mmap_mode="r" if want_mmap else None)
    except FileNotFoundError as exc:
        raise DatabaseFormatError(
            f"{path}: missing database array file ({exc})"
        ) from exc
    except (OSError, ValueError) as exc:
        raise DatabaseFormatError(f"{path}: corrupt array file ({exc})") from exc
    if array.dtype != dtype or array.shape != shape:
        raise DatabaseFormatError(
            f"{path}: array is {array.dtype}{array.shape}, manifest says "
            f"{dtype}{shape}"
        )
    if crc is not None and zlib.crc32(array) != crc:
        raise DatabaseFormatError(f"{path}: checksum mismatch (file corrupted)")
    return array


_VERSION_DIR_RE = re.compile(r"^v(\d+)$")


def version_directories(root: str | os.PathLike) -> list[tuple[int, Path]]:
    """Complete versioned databases under ``root``, ascending by number.

    A version is a child directory named ``v<N>`` that contains a
    ``database.meta``; because :func:`save_database` publishes
    atomically, "has a metadata file" is equivalent to "is complete".
    Children matching the name pattern but missing the metadata file
    (debris of pre-atomic writers) are ignored here but still count
    when :func:`publish_database` picks the next number.
    """
    root = Path(root)
    versions: list[tuple[int, Path]] = []
    try:
        children = list(root.iterdir())
    except OSError:
        return []
    for child in children:
        match = _VERSION_DIR_RE.match(child.name)
        if match and child.is_dir() and (child / "database.meta").exists():
            versions.append((int(match.group(1)), child))
    versions.sort()
    return versions


def latest_version(root: str | os.PathLike) -> Path | None:
    """The newest complete ``v<N>`` database under ``root`` (or None)."""
    versions = version_directories(root)
    return versions[-1][1] if versions else None


def publish_database(db: Database, root: str | os.PathLike) -> Path:
    """Atomically save ``db`` as the next ``v<N>`` under ``root``.

    The building block of hot-swap reloads: a watcher polling
    ``root`` (``metacache-repro serve --watch``) only ever observes
    complete versions, because the directory appears in one rename.
    Returns the new version directory.  Numbering skips over *any*
    name-matching child -- even incomplete debris -- so a crashed
    publish can never block the next one.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    taken = [
        int(m.group(1))
        for child in root.iterdir()
        if (m := _VERSION_DIR_RE.match(child.name))
    ]
    dest = root / f"v{max(taken, default=0) + 1}"
    save_database(db, dest)
    return dest
