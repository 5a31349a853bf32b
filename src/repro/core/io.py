"""Database persistence: one index format, one writer (Section 4.3).

A saved database is a directory holding the condensed layout (Section
5.1) exactly as a query uses it: per partition one dense concatenated
array of 32-bit location words, the partition's target map, the
sorted features and the running sums of their list lengths.  Arrays
are plain page-aligned ``.npy`` files described by a ``manifest.json``
with per-array CRC-32 checksums::

    database.meta          # JSON: format_version=2, params, targets
    nodes.dmp, names.dmp   # NCBI-format taxonomy dumps
    manifest.json          # per-array files/dtypes/shapes/CRC-32s,
                           # feature/location counts, window_bits
    part<P>.locations.npy  # uint32 words local << window_bits | window,
                           # dense concatenated location lists
    part<P>.targets.npy    # uint32, ascending target ids present in the
                           # partition (local target -> target id)
    part<P>.features.npy   # uint32, strictly ascending features
    part<P>.offsets.npy    # n_features + 1 running sums into locations:
                           # uint32 below 2^32 locations, else uint64

A location word's ``local`` field is the target's rank in the target
map and ``window_bits`` (in the manifest entry) the bit length of the
partition's largest window id; both follow from the content, and
``CondensedIndex.retrieve`` expands the words back to the uint64
``target << 32 | window`` locations every other layer sees.  Feature
``features[i]`` owns ``locations[offsets[i]:offsets[i + 1]]``; a
lookup is one binary search per feature.  The manifest records the
offsets dtype the way it records the location dtype.

``load_database`` wraps the arrays as they are -- **zero rebuild**;
with ``mmap=True`` also **zero copy**: cold open is O(metadata), the
index pages fault in on first lookup, and any number of processes
opening the same directory share one physical copy through the page
cache.  Partition files load under any device assignment, mirroring
"partitioned databases generated by the CPU version can be loaded by
the GPU version and vice versa".

Legacy inputs still load; ``convert_database`` (``metacache-repro
convert``) upgrades each to the layout above:

- a **format v1** directory (one ``database.cache<P>`` NPZ per
  partition: sorted features, per-feature lengths, locations) loads by
  indexing those columns directly;
- a v2 partition that stores the slot arrays of a single-value hash
  table mapping each feature to a packed ``(offset << 24 | length)``
  pointer (what this package wrote before the sorted pointers) loads
  by reading the occupied slots into sorted features and offsets,
  once; whatever else its manifest entry lists, the slot arrays mark
  it;
- such a partition whose locations have the dtype ``<u8`` (uint64
  ``target << 32 | window``, no target map) also has its words packed
  in memory, once; the key and length columns that directories of
  that age may store beside the slot arrays are ignored.

None of them can be memory-mapped: ``mmap=True`` loads them eagerly
with one ``UserWarning``.  A legacy partition whose targets and
windows do not fit one 32-bit word raises :class:`DatabaseFormatError`.
"""

from __future__ import annotations

import json
import os
import re
import secrets
import shutil
import struct
import warnings
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
from repro.warpcore.base import EMPTY_KEY, sort_by_key

__all__ = [
    "save_database",
    "load_database",
    "convert_database",
    "publish_database",
    "version_directories",
    "latest_version",
    "FORMAT_V2",
]

FORMAT_V2 = 2  # the format written; v1 directories are only read
_MANIFEST_NAME = "manifest.json"
_NPY_ALIGN = 4096  # data payload starts on a page boundary
_NPY_MAGIC = b"\x93NUMPY\x01\x00"

# manifest key == file suffix of every per-partition array, in order;
# all are <u4 but the offsets, whose dtype the manifest records
_V2_ARRAYS = ("locations", "targets", "features", "offsets")
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
    pointers = cond.pointers
    return (
        pointers.features.astype(np.uint64),
        np.diff(pointers.offsets.astype(np.int64)),
        cond.expand(cond.locations),
    )


def _write_partitions(db: Database, directory: Path) -> list[Path]:
    """Aligned ``.npy`` files per partition + the checksum manifest.

    Every partition a build or a load produces is written from the
    arrays it holds (sorted pointers are always dense, so nothing is
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
        pointers = cond.pointers
        n_locations = int(cond.locations.size)
        arrays = (cond.locations, cond.targets, pointers.features, pointers.offsets)
        dtypes = ("<u4", "<u4", "<u4", offsets_dtype(n_locations).str)
        entry: dict = {
            "partition_id": p,
            "n_features": len(pointers),
            "n_locations": n_locations,
            "window_bits": cond.window_bits,
            "arrays": {},
        }
        for key, dtype, array in zip(_V2_ARRAYS, dtypes, arrays):
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


def _check_format_version(meta, meta_path: Path) -> int:
    """Validate ``format_version``, distinguishing the failure modes.

    A directory without an integer ``format_version`` is *not a
    database*; an integer above :data:`FORMAT_V2` was *written by a
    newer version* of this package.  Every branch raises
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
            f"version of metacache-repro (this build reads v1..v{FORMAT_V2}); "
            "upgrade the package, or re-save the database with the newer tool "
            "in a supported format"
        )
    return version


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
        the database directory (legacy v1 directories are detected).
    mmap:
        memory-map the index arrays instead of reading them: cold open
        touches no index bytes, and concurrent processes opening the
        same directory share one physical copy through the page
        cache.  Ignored, with one ``UserWarning``, for the legacy
        inputs of the module docs (v1 directories and pointer-table
        partitions, with 32- or 64-bit location words), which are
        re-indexed in memory on load: none has an mmap-able layout.
    verify:
        check every array against its manifest CRC-32 (reads the
        full payload; defeats the O(1) open, so off by default --
        ``convert_database`` turns it on).

    Raises :class:`DatabaseFormatError` on malformed content; a
    missing ``database.meta`` surfaces as the raw ``FileNotFoundError``
    and garbled JSON as ``json.JSONDecodeError`` (long-standing
    contract; the API facade translates them at the ``repro.api``
    boundary).
    """
    directory = Path(directory)
    meta_path = directory / "database.meta"
    meta = json.loads(meta_path.read_text())
    version = _check_format_version(meta, meta_path)
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
        n_partitions = int(meta["n_partitions"])
    except (KeyError, TypeError) as exc:
        raise DatabaseFormatError(f"{meta_path}: incomplete metadata ({exc!r})") from exc
    taxonomy = load_ncbi_dump(directory / "nodes.dmp", directory / "names.dmp")
    # before any partition is opened, so a refusal leaves nothing mapped
    for t in targets:
        if t.taxon_id not in taxonomy:
            raise DatabaseFormatError(
                f"{meta_path}: target {t.target_id} ({t.name!r}) names taxon "
                f"{t.taxon_id}, which is not in nodes.dmp"
            )

    if version == FORMAT_V2:
        entries = _read_manifest(directory, n_partitions)
        wide = [_locations_dtype(directory, e, pid) == "<u8"
                for pid, e in enumerate(entries)]
        legacy = [_lists_pointer_table(e) for e in entries]
        if mmap and any(legacy):
            what = (
                "uint64 location words cannot be memory-mapped; packing them"
                if any(wide) else
                "hash-table pointers cannot be memory-mapped; reading them "
                "into sorted pointers"
            )
            warnings.warn(
                f"{directory}: {what} in memory (convert with `metacache-repro "
                "convert` for zero-copy opens)",
                stacklevel=2,
            )
            mmap = False
        condensed_parts = []
        for pid, entry in enumerate(entries):
            if legacy[pid]:
                cond = _load_pointer_table_partition(
                    directory, entry, pid, wide=wide[pid], verify=verify
                )
            else:
                cond = _load_partition_v2(
                    directory, entry, pid, mmap=mmap, verify=verify
                )
            condensed_parts.append(cond)
    else:
        if mmap:
            warnings.warn(
                f"{directory}: format v1 databases cannot be memory-mapped; "
                "loading them in memory (convert to v2 with "
                "`metacache-repro convert` for zero-copy opens)",
                stacklevel=2,
            )
            mmap = False
        condensed_parts = [
            _load_condensed_v1(directory / f"database.cache{pid}", pid)
            for pid in range(n_partitions)
        ]

    partitions = [
        DatabasePartition(partition_id=pid, table=None, condensed=condensed)
        for pid, condensed in enumerate(condensed_parts)
    ]
    db = Database(
        params=params, taxonomy=taxonomy, partitions=partitions, targets=targets
    )
    db.format_version = version
    if mmap:
        db.mmap_path = directory
    return db


def _load_condensed_v1(cache_path: Path, pid: int) -> CondensedIndex:
    """Index one partition of a v1 NPZ (its columns, read whole)."""
    try:
        with np.load(cache_path) as data:
            features = data["features"]
            lengths = data["lengths"]
            locations = data["locations"]
    except (DatabaseFormatError, FileNotFoundError):
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


def _read_manifest(directory: Path, n_partitions: int) -> list[dict]:
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
    parts = manifest.get("partitions")
    if not isinstance(parts, list) or len(parts) != n_partitions:
        raise DatabaseFormatError(
            f"{manifest_path}: manifest lists "
            f"{len(parts) if isinstance(parts, list) else 0} partition(s), "
            f"metadata says {n_partitions}"
        )
    return parts


def _locations_dtype(directory: Path, entry: dict, pid: int) -> str:
    """The manifest's dtype of a partition's location words."""
    try:
        dtype = entry["arrays"]["locations"]["dtype"]
    except (KeyError, TypeError) as exc:
        raise DatabaseFormatError(
            f"{directory / _MANIFEST_NAME}: corrupt manifest for partition "
            f"{pid} ({exc!r})"
        ) from exc
    if dtype not in ("<u4", "<u8"):
        raise DatabaseFormatError(
            f"{directory / _MANIFEST_NAME}: partition {pid} has location "
            f"words of dtype {dtype!r} (expected '<u4', or legacy '<u8')"
        )
    return dtype


def _open_partition(
    directory: Path, entry: dict, pid: int, dtypes: dict, *, mmap: bool, verify: bool
) -> tuple[dict[str, np.ndarray], int, int]:
    """Open the arrays ``dtypes`` names; ``(arrays, n_features, n_locations)``.

    ``dtypes`` maps each manifest key to the dtypes it may have; the
    manifest says which one it has.
    """
    arrays: dict[str, np.ndarray] = {}
    try:
        for key, allowed in dtypes.items():
            spec = entry["arrays"][key]
            if spec["dtype"] not in allowed:
                raise ValueError(
                    f"{key} of dtype {spec['dtype']!r} (expected one of {allowed})"
                )
            arrays[key] = _open_npy(
                directory / str(spec["file"]), np.dtype(spec["dtype"]),
                tuple(int(n) for n in spec["shape"]),
                crc=spec["crc32"] if verify else None,
                mmap=mmap and key != "targets",  # the map is metadata-sized
            )
        return arrays, int(entry["n_features"]), int(entry["n_locations"])
    except DatabaseFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DatabaseFormatError(
            f"{directory / _MANIFEST_NAME}: corrupt manifest for partition "
            f"{pid} ({exc!r})"
        ) from exc


def _load_partition_v2(
    directory: Path,
    entry: dict,
    pid: int,
    *,
    mmap: bool,
    verify: bool,
) -> CondensedIndex:
    """Map (or read) one partition's arrays and wrap them, copy-free."""
    manifest_path = directory / _MANIFEST_NAME
    dtypes = dict.fromkeys(_V2_ARRAYS, ("<u4",))
    dtypes["offsets"] = _OFFSETS_DTYPES
    arrays, n_features, n_locations = _open_partition(
        directory, entry, pid, dtypes, mmap=mmap, verify=verify
    )
    locations = arrays["locations"]
    # header-only checks (no payload reads; mmap open stays O(metadata))
    if (
        arrays["features"].size != n_features
        or arrays["offsets"].size != n_features + 1
        or locations.size != n_locations
    ):
        raise DatabaseFormatError(
            f"{manifest_path}: partition {pid} array sizes disagree with manifest"
        )
    pointers = SortedPointers(arrays["features"], arrays["offsets"])
    cond = _narrow_index(
        locations, pointers, arrays["targets"], entry, manifest_path, pid
    )
    # deep checks whenever the payload is (or will be) resident anyway:
    # eager loads and verify=True check the pointers and words queries
    # read (v1-loader parity); a plain mmap open skips them by contract
    # (cold open must not fault the index in), and retrieve checks the
    # offsets it reads instead
    if not mmap or verify:
        _check_content(cond, n_locations, manifest_path, pid)
    return cond


def _check_content(
    cond: CondensedIndex, n_locations: int, manifest_path: Path, pid: int
) -> None:
    """Pointers cover the locations exactly; words name mapped targets."""
    try:
        cond.pointers.validate(n_locations)
    except ValueError as exc:
        raise DatabaseFormatError(
            f"{manifest_path}: pointers of partition {pid} do not match its "
            f"location array ({exc})"
        ) from exc
    if n_locations and (
        int(cond.locations.max()) >> cond.window_bits >= cond.targets.size
    ):
        raise DatabaseFormatError(
            f"{manifest_path}: location words of partition {pid} name "
            "targets outside its target map"
        )


def _narrow_index(
    locations: np.ndarray,
    pointers: SortedPointers,
    targets: np.ndarray,
    entry: dict,
    manifest_path: Path,
    pid: int,
) -> CondensedIndex:
    """Wrap a 32-bit-word partition after checking its target map."""
    try:
        window_bits = int(entry["window_bits"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DatabaseFormatError(
            f"{manifest_path}: corrupt manifest for partition {pid} ({exc!r})"
        ) from exc
    # 32: the widest window field a uint32 word has room for
    fits = 0 <= window_bits <= 32 and location_word_fits(
        targets.size, (1 << window_bits) - 1
    )
    if not fits:
        raise DatabaseFormatError(
            f"{manifest_path}: partition {pid} declares window_bits "
            f"{window_bits} for {targets.size} targets"
        )
    if np.any(targets[1:] <= targets[:-1]):
        raise DatabaseFormatError(
            f"{manifest_path}: target map of partition {pid} is not strictly "
            "ascending"
        )
    return CondensedIndex(
        locations=locations, pointers=pointers, targets=targets,
        window_bits=window_bits,
    )


# ------------------------------------------------ legacy pointer-table partitions


def _lists_pointer_table(entry: dict) -> bool:
    """Whether a manifest entry is a legacy pointer-table partition."""
    arrays = entry.get("arrays") if isinstance(entry, dict) else None
    return isinstance(arrays, dict) and "ptr_keys" in arrays


def _load_pointer_table_partition(
    directory: Path, entry: dict, pid: int, *, wide: bool, verify: bool
) -> CondensedIndex:
    """Read a pointer-table partition into sorted pointers (always eager).

    One scan and one grouping sort of the occupied slots, no probing:
    each slot value packs ``offset << 24 | length``.  Every writer
    stored the offsets as the running sum of the lengths in feature
    order, so the location array is kept as it is; any other packing
    is a ``DatabaseFormatError``.  ``wide``: the locations are uint64
    ``target << 32 | window`` and are packed into words here.
    """
    manifest_path = directory / _MANIFEST_NAME
    dtypes = {"locations": ("<u8",) if wide else ("<u4",)}
    if not wide:
        dtypes["targets"] = ("<u4",)
    dtypes.update(ptr_keys=("<u4",), ptr_values=("<u8",))
    arrays, n_features, n_locations = _open_partition(
        directory, entry, pid, dtypes, mmap=False, verify=verify
    )
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
    if wide:
        try:
            return CondensedIndex.from_locations(locations, pointers)
        except ValueError as exc:
            raise DatabaseFormatError(
                f"{manifest_path}: partition {pid} cannot be packed ({exc}); "
                "rebuild it with more partitions"
            ) from exc
    cond = _narrow_index(
        locations, pointers, arrays["targets"], entry, manifest_path, pid
    )
    _check_content(cond, n_locations, manifest_path, pid)
    return cond


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


def convert_database(
    source: str | os.PathLike,
    destination: str | os.PathLike,
    *,
    verify: bool = True,
) -> list[Path]:
    """Rewrite a database directory in the current on-disk format.

    The upgrade path for legacy v1 directories: load ``source``
    (checksums verified when it has them and ``verify`` is set) and
    save it to ``destination``.  Returns the files written.
    ``source`` and ``destination`` must differ -- conversion never
    rewrites a database in place.
    """
    if Path(source).resolve() == Path(destination).resolve():
        raise ValueError("convert_database cannot rewrite a database in place")
    return save_database(load_database(source, verify=verify), destination)


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
