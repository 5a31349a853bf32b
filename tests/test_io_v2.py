"""Tests of the (mmap, zero-rebuild) database persistence.

Covers the writer/reader pair (aligned ``.npy`` layout, checksum
manifest, version negotiation), the zero-insert open guarantee, mmap
attach semantics (``np.memmap`` views, page-cache sharing through
:class:`FileBackedDatabaseHandle`), classification equivalence across
{legacy v1, v2, v2+mmap, v2+workers}, the ``convert`` upgrade path
(API and CLI), the legacy inputs the reader still accepts (format v1
and the five-array v2 layout, both written by
``tests/reference/index_v1.py``, and pointer-table partitions, written
by ``tests/reference/index_ptr_table.py``), a corruption matrix over
every file of a partition, and the reserved-sentinel regression on the
pointers.
"""

import hashlib
import json
import os
import pickle
import shutil
import struct
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.api import DatabaseFormatError, MetaCache, MetaCacheParams, TsvSink
from repro.cli import main as cli_main
from repro.core import builder as builder_mod
from repro.core import io as io_mod
from repro.core.classify import classify_reads
from repro.core.database import Database, FileBackedDatabaseHandle, SortedPointers
from repro.core.io import (
    FORMAT_V2,
    _NPY_ALIGN,
    convert_database,
    load_database,
    save_database,
)
from repro.core.query import query_database
from repro.genomics.alphabet import decode_sequence
from repro.genomics.fastq import FastqRecord, write_fastq
from repro.genomics.reads import HISEQ, ReadSimulator
from repro.genomics.simulate import GenomeSimulator
from repro.taxonomy.builder import build_taxonomy_for_genomes
from repro.warpcore.single_value import SingleValueHashTable

from reference.index_ptr_table import save_database_ptr_table
from reference.index_v1 import save_database_v1, save_database_v2_five_arrays

PARAMS = MetaCacheParams.small()


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A 2-partition database saved as legacy v1 and as v2 + a read file."""
    genomes = GenomeSimulator(seed=23).simulate_collection(3, 2, 5000)
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    references = [
        (g.name, g.scaffolds[0], taxa.target_taxon[i])
        for i, g in enumerate(genomes)
    ]
    db = Database.build(references, taxonomy, params=PARAMS, n_partitions=2)
    root = tmp_path_factory.mktemp("dbv2")
    v1 = root / "v1"
    v2 = root / "v2"
    save_database_v1(db, v1)
    save_database(db, v2, format=2)
    reads = ReadSimulator(genomes, seed=31).simulate(HISEQ, 100)
    records = [
        FastqRecord(f"r{i}", decode_sequence(s), "I" * s.size)
        for i, s in enumerate(reads.sequences)
    ]
    read_file = root / "reads.fastq"
    write_fastq(records, read_file)
    return v1, v2, list(reads.sequences), read_file


def _taxa(db, seqs):
    result = query_database(db, seqs)
    return classify_reads(db, result.candidates).taxon


def _classify_tsv(tmp_path, db_dir, read_file, name, workers=1, **open_kwargs):
    out = tmp_path / name
    with MetaCache.open(db_dir, **open_kwargs) as mc:
        with mc.session(workers=workers) as session, TsvSink(out) as sink:
            session.classify_files(read_file, sink=sink)
    return out.read_bytes()


class TestV2Layout:
    def test_v2_files_and_manifest(self, world):
        _, v2, _, _ = world
        manifest = json.loads((v2 / "manifest.json").read_text())
        assert manifest["format_version"] == FORMAT_V2
        assert len(manifest["partitions"]) == 2
        for entry in manifest["partitions"]:
            assert sorted(entry["arrays"]) == [
                "features", "locations", "offsets", "targets"
            ]
            assert "pointer_table" not in entry
            for key in ("locations", "targets", "features", "offsets"):
                assert entry["arrays"][key]["dtype"] == "<u4"
            for key, spec in entry["arrays"].items():
                path = v2 / spec["file"]
                assert path.is_file()
                payload = np.load(path)
                assert zlib.crc32(payload.tobytes()) == spec["crc32"]
            n = entry["n_features"]
            assert entry["arrays"]["features"]["shape"] == [n]
            assert entry["arrays"]["offsets"]["shape"] == [n + 1]
            offsets = np.load(v2 / entry["arrays"]["offsets"]["file"])
            assert offsets[0] == 0 and offsets[-1] == entry["n_locations"]
        # the feature -> list map is stored once: features + offsets
        assert len(list(v2.glob("*.npy"))) == 4 * len(manifest["partitions"])

    def test_npy_payloads_page_aligned(self, world):
        _, v2, _, _ = world
        for path in sorted(v2.glob("*.npy")):
            with open(path, "rb") as fh:
                assert fh.read(8) == b"\x93NUMPY\x01\x00"
                (hlen,) = struct.unpack("<H", fh.read(2))
            assert (10 + hlen) % _NPY_ALIGN == 0, path.name

    def test_meta_declares_v2(self, world):
        _, v2, _, _ = world
        meta = json.loads((v2 / "database.meta").read_text())
        assert meta["format_version"] == FORMAT_V2


class TestZeroRebuildOpen:
    def test_v2_open_performs_no_inserts(self, world, monkeypatch):
        """The acceptance criterion: v2 open never rebuilds the pointers."""
        v1, v2, _, _ = world
        inserts, indexed = [], []
        insert = SingleValueHashTable.insert
        from_lengths = SortedPointers.from_lengths.__func__

        def counting_insert(self, keys, values):
            inserts.append(np.asarray(keys).size)
            return insert(self, keys, values)

        def counting_from_lengths(cls, features, lengths):
            indexed.append(np.asarray(features).size)
            return from_lengths(cls, features, lengths)

        monkeypatch.setattr(SingleValueHashTable, "insert", counting_insert)
        monkeypatch.setattr(
            SortedPointers, "from_lengths", classmethod(counting_from_lengths)
        )
        load_database(v2)
        load_database(v2, mmap=True)
        assert indexed == []
        load_database(v1)  # the v1 path, by contrast, indexes its columns
        assert indexed != []
        assert inserts == []  # and no path builds a hash table

    def test_mmap_views_are_memmaps(self, world):
        _, v2, _, _ = world
        db = load_database(v2, mmap=True)
        cond = db.partitions[0].condensed
        assert isinstance(cond.locations, np.memmap)
        assert isinstance(cond.pointers.features, np.memmap)
        assert isinstance(cond.pointers.offsets, np.memmap)
        assert db.mmap_path == v2
        assert db.format_version == FORMAT_V2

    def test_plain_v2_load_not_mmap_backed(self, world):
        _, v2, _, _ = world
        db = load_database(v2)
        assert db.mmap_path is None
        assert not isinstance(db.partitions[0].condensed.locations, np.memmap)

    def test_v1_mmap_warns_and_rebuilds(self, world):
        v1, _, seqs, _ = world
        with pytest.warns(UserWarning, match="cannot be memory-mapped"):
            db = load_database(v1, mmap=True)
        assert db.mmap_path is None
        assert db.format_version == 1


class TestProbeViewLifetime:
    """Lookups read base-``ndarray`` views of the mapped pointer arrays;
    every view is an export of its map and must be gone before
    ``mmap.close``, or the close fails silently and the fd leaks."""

    @staticmethod
    def _fd_count() -> int:
        return len(os.listdir("/proc/self/fd"))

    def test_fifty_open_classify_close_cycles_keep_fds_flat(self, world):
        _, v2, seqs, _ = world
        with MetaCache.open(v2, mmap=True) as mc:
            mc.classify(seqs[:4])  # warm lazy imports first
        before = self._fd_count()
        for _ in range(50):
            with MetaCache.open(v2, mmap=True) as mc:
                assert len(mc.classify(seqs[:4])) == 4
        assert self._fd_count() == before

    def test_close_while_retained_unmaps_at_release(self, world):
        _, v2, seqs, _ = world
        before = self._fd_count()
        db = load_database(v2, mmap=True)
        mapped = self._fd_count()
        assert mapped > before
        # what a batch in flight holds on to while the swap closes the index
        tables = [p.condensed.pointers for p in db.partitions]
        assert all(type(t._features) is np.ndarray for t in tables)
        assert all(type(t._offsets) is np.ndarray for t in tables)
        expected = _taxa(db, seqs[:8])
        db.retain()
        db.close()
        assert not db.closed and self._fd_count() == mapped
        assert np.array_equal(_taxa(db, seqs[:8]), expected)  # still mapped
        db.release()
        assert db.closed
        # unmapped although the pointers themselves are still referenced
        assert self._fd_count() == before
        assert all(t._features is None and t.features is None for t in tables)
        assert all(t._offsets is None and t.offsets is None for t in tables)


class TestEquivalence:
    def test_classification_identical_across_formats(self, world):
        v1, v2, seqs, _ = world
        expected = _taxa(load_database(v1), seqs)
        assert np.array_equal(expected, _taxa(load_database(v2), seqs))
        assert np.array_equal(expected, _taxa(load_database(v2, mmap=True), seqs))

    def test_tsv_byte_identical_v1_v2_mmap(self, world, tmp_path):
        v1, v2, _, read_file = world
        ref = _classify_tsv(tmp_path, v1, read_file, "v1.tsv")
        assert ref  # sanity: non-empty output
        assert ref == _classify_tsv(tmp_path, v2, read_file, "v2.tsv")
        assert ref == _classify_tsv(
            tmp_path, v2, read_file, "v2m.tsv", mmap=True
        )

    def test_tsv_byte_identical_mmap_workers(self, world, tmp_path):
        """Workers attach the same files via mmap; output is identical."""
        v1, v2, _, read_file = world
        ref = _classify_tsv(tmp_path, v1, read_file, "ref.tsv")
        got = _classify_tsv(
            tmp_path, v2, read_file, "w2.tsv", mmap=True, workers=2
        )
        assert ref == got


class TestFileBackedHandle:
    def test_sharing_handle_kind_depends_on_open_mode(self, world):
        _, v2, seqs, _ = world
        mapped = load_database(v2, mmap=True).sharing_handle()
        assert isinstance(mapped, FileBackedDatabaseHandle)
        assert mapped.directory == str(v2)
        with load_database(v2).sharing_handle() as spilled:
            # non-mmap databases are spilled to a private v2 directory
            # the handle owns -- and removes, leaving the source alone
            assert isinstance(spilled, FileBackedDatabaseHandle)
            spill = Path(spilled.directory)
            assert spill != v2 and (spill / "database.meta").is_file()
            assert np.array_equal(
                _taxa(spilled.attach(), seqs), _taxa(load_database(v2), seqs)
            )
        assert not spill.exists()
        assert (v2 / "database.meta").is_file()

    def test_pickle_roundtrip_attach(self, world):
        _, v2, seqs, _ = world
        handle = load_database(v2, mmap=True).sharing_handle()
        blob = pickle.dumps(handle)
        assert len(blob) < 1024  # the spec is just a path
        clone = pickle.loads(blob)
        db = clone.attach()
        assert db.mmap_path == v2
        assert clone.attach() is db  # idempotent
        clone.close()
        assert clone._database is None
        clone.unlink()  # no-op: must not delete the directory
        assert (v2 / "database.meta").is_file()

    def test_attach_missing_directory_fails(self, tmp_path):
        handle = FileBackedDatabaseHandle(tmp_path / "nope")
        with pytest.raises(FileNotFoundError):
            handle.attach()


class TestConvert:
    def test_convert_v1_to_v2(self, world, tmp_path):
        v1, _, seqs, _ = world
        dst = tmp_path / "upgraded"
        convert_database(v1, dst)
        db = load_database(dst, mmap=True, verify=True)
        assert np.array_equal(_taxa(load_database(v1), seqs), _taxa(db, seqs))

    def test_downgrade_to_v1_is_refused(self, world, tmp_path):
        """There is one writer: nothing can be asked to write format v1."""
        _, v2, _, _ = world
        dst = tmp_path / "downgraded"
        with pytest.raises(TypeError):
            convert_database(v2, dst, format=1)
        db = load_database(v2)
        with pytest.raises(ValueError, match=r"supported: 2"):
            save_database(db, dst, format=1)
        with pytest.raises(ValueError, match=r"supported: 2"):
            MetaCache(db).save(dst, format=1)
        assert not dst.exists()
        with pytest.raises(SystemExit):
            cli_main(["convert", "--db", str(v2), "--out", str(dst), "--format", "1"])

    def test_convert_in_place_rejected(self, world):
        v1, _, _, _ = world
        with pytest.raises(ValueError, match="in place"):
            convert_database(v1, v1)

    def test_convert_cli(self, world, tmp_path, capsys):
        v1, _, _, read_file = world
        dst = tmp_path / "cli-upgraded"
        assert cli_main(["convert", "--db", str(v1), "--out", str(dst)]) == 0
        assert "format v2" in capsys.readouterr().out
        ref = _classify_tsv(tmp_path, v1, read_file, "a.tsv")
        got = _classify_tsv(tmp_path, dst, read_file, "b.tsv", mmap=True)
        assert ref == got

    def test_facade_convert_missing_source(self, tmp_path):
        with pytest.raises(DatabaseFormatError, match="no database"):
            MetaCache.convert(tmp_path / "absent", tmp_path / "out")


class TestMmapOverwriteGuard:
    """Pin the resolve-both-sides spelling of the overwrite guard.

    ``save_database`` refuses to write into the directory backing a
    mmap-backed database because the save would rewrite the very files
    the live index arrays are mapped over.  Both sides of the
    comparison are ``resolve()``d, so aliased spellings of the same
    directory (symlinks, relative paths) must be refused too -- and a
    *fresh* directory must keep working, byte-identically, as the
    sanctioned way to copy a mmap-backed database.
    """

    def test_symlinked_spelling_refused(self, world, tmp_path):
        _, v2, _, _ = world
        db = load_database(v2, mmap=True)
        try:
            alias = tmp_path / "alias"
            alias.symlink_to(v2, target_is_directory=True)
            with pytest.raises(DatabaseFormatError, match="memory-mapped"):
                save_database(db, alias, format=2)
        finally:
            db.close()

    def test_relative_spelling_refused(self, world, monkeypatch):
        _, v2, _, _ = world
        db = load_database(v2, mmap=True)
        try:
            monkeypatch.chdir(v2.parent)
            with pytest.raises(DatabaseFormatError, match="memory-mapped"):
                save_database(db, Path(v2.name), format=2)
        finally:
            db.close()

    def test_fresh_dir_save_byte_identical_then_hot_swap(
        self, world, tmp_path
    ):
        _, v2, _, read_file = world
        db = load_database(v2, mmap=True)
        fresh = tmp_path / "fresh"
        try:
            save_database(db, fresh, format=2)
        finally:
            db.close()
        assert sorted(p.name for p in fresh.iterdir()) == sorted(
            p.name for p in v2.iterdir()
        )
        for path in sorted(fresh.iterdir()):
            assert path.read_bytes() == (v2 / path.name).read_bytes(), (
                path.name
            )
        # ...and a live handle can hot-swap onto the copy mid-session
        # and keep answering identically
        before, after = tmp_path / "before.tsv", tmp_path / "after.tsv"
        with MetaCache.open(v2, mmap=True) as mc:
            with mc.session() as session:
                with TsvSink(before) as sink:
                    session.classify_files(read_file, sink=sink)
                mc.reload(fresh)
                assert mc.database.mmap_path == fresh
                with TsvSink(after) as sink:
                    session.classify_files(read_file, sink=sink)
        assert before.read_bytes() == after.read_bytes()


class TestCorruption:
    def _copy_v2(self, v2, tmp_path):
        dst = tmp_path / "copy"
        shutil.copytree(v2, dst)
        return dst

    def test_checksum_mismatch_detected(self, world, tmp_path):
        _, v2, _, _ = world
        dst = self._copy_v2(v2, tmp_path)
        victim = dst / "part0.locations.npy"
        blob = bytearray(victim.read_bytes())
        blob[-1] ^= 0xFF  # flip one payload byte
        victim.write_bytes(bytes(blob))
        with pytest.raises(DatabaseFormatError, match="checksum mismatch"):
            load_database(dst, verify=True)

    def test_unverified_load_skips_checksums(self, world, tmp_path):
        _, v2, _, _ = world
        dst = self._copy_v2(v2, tmp_path)
        victim = dst / "part0.locations.npy"
        blob = bytearray(victim.read_bytes())
        blob[-4] ^= 0xFF  # the last word's low byte: a window id, in range
        victim.write_bytes(bytes(blob))
        load_database(dst)  # corruption invisible without verify

    def test_missing_manifest(self, world, tmp_path):
        _, v2, _, _ = world
        dst = self._copy_v2(v2, tmp_path)
        (dst / "manifest.json").unlink()
        with pytest.raises(DatabaseFormatError, match="missing its manifest"):
            load_database(dst)

    def test_missing_array_file(self, world, tmp_path):
        _, v2, _, _ = world
        dst = self._copy_v2(v2, tmp_path)
        (dst / "part1.offsets.npy").unlink()
        with pytest.raises(DatabaseFormatError, match="part1.offsets.npy"):
            load_database(dst)

    def test_corrupt_pointer_values_detected_on_eager_load(
        self, world, tmp_path
    ):
        """Eager loads cross-check the offsets queries read."""
        _, v2, _, _ = world
        dst = self._copy_v2(v2, tmp_path)
        victim = dst / "part0.offsets.npy"
        offsets = np.load(victim)
        blob = bytearray(victim.read_bytes())
        at = len(blob) - offsets.nbytes + 4  # offsets[1]
        blob[at : at + 4] = b"\xff" * 4  # far past the locations
        victim.write_bytes(bytes(blob))
        with pytest.raises(DatabaseFormatError, match="pointers of partition 0"):
            load_database(dst)  # eager: caught without verify=
        load_database(dst, mmap=True)  # mmap contract: open stays lazy
        with pytest.raises(DatabaseFormatError):
            load_database(dst, mmap=True, verify=True)

    def test_shape_mismatch_detected(self, world, tmp_path):
        _, v2, _, _ = world
        dst = self._copy_v2(v2, tmp_path)
        manifest = json.loads((dst / "manifest.json").read_text())
        manifest["partitions"][0]["arrays"]["locations"]["shape"] = [1]
        (dst / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DatabaseFormatError, match="manifest says"):
            load_database(dst)


def _digests(directory):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(directory).iterdir())
    }


@pytest.fixture(scope="module")
def refs_world():
    genomes = GenomeSimulator(seed=29).simulate_collection(3, 2, 4000)
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    refs = [
        (g.name, g.scaffolds[0], taxa.target_taxon[i])
        for i, g in enumerate(genomes)
    ]
    reads = ReadSimulator(genomes, seed=7).simulate(HISEQ, 60)
    return taxonomy, refs, list(reads.sequences)


class TestLegacyInputs:
    """What older versions wrote still loads, and re-saves to today's bytes.

    The retired writers (``tests/reference/index_v1.py``) are the
    oracle: whatever they put on disk must come back through
    ``load_database`` as the index a fresh build saves, file for file.
    """

    UNCAPPED = (1 << 24) - 1  # no list here reaches it

    @staticmethod
    def _assert_v1_resaves_identically(db, tmp_path):
        save_database_v1(db, tmp_path / "v1")  # first: leaves the build layout
        save_database(db, tmp_path / "built")
        loaded = load_database(tmp_path / "v1")
        assert loaded.format_version == 1
        save_database(loaded, tmp_path / "resaved")
        built = _digests(tmp_path / "built")
        assert len(built) == 4 + 4 * db.n_partitions
        assert _digests(tmp_path / "resaved") == built
        MetaCache.convert(tmp_path / "v1", tmp_path / "converted")
        assert _digests(tmp_path / "converted") == built

    @pytest.mark.parametrize("n_partitions", [1, 3])
    @pytest.mark.parametrize("cap", [None, 3, 254])
    def test_v1_resave_is_sha_identical_to_build_save(
        self, refs_world, tmp_path, n_partitions, cap
    ):
        taxonomy, refs, _ = refs_world
        params = PARAMS.replace(
            max_locations_per_feature=self.UNCAPPED if cap is None else cap
        )
        db = Database.build(refs, taxonomy, params=params, n_partitions=n_partitions)
        self._assert_v1_resaves_identically(db, tmp_path)

    def test_v1_resave_with_an_empty_partition(self, refs_world, tmp_path):
        taxonomy, refs, _ = refs_world
        db = Database.build(refs[:1], taxonomy, params=PARAMS, n_partitions=2)
        assert db.partitions[1].table.stored_values == 0
        self._assert_v1_resaves_identically(db, tmp_path)

    def test_v1_resave_after_table_growth(self, refs_world, tmp_path, monkeypatch):
        taxonomy, refs, _ = refs_world
        grows = []
        original = builder_mod._GrowingTable._grow

        def counting(self, new_capacity):
            grows.append(new_capacity)
            return original(self, new_capacity)

        monkeypatch.setattr(builder_mod._GrowingTable, "_grow", counting)
        db = Database.build(refs, taxonomy, params=PARAMS, insert_batch_windows=40)
        assert grows  # the streamed build outgrew its first table
        self._assert_v1_resaves_identically(db, tmp_path)

    def test_five_array_v2_directory_loads_and_upgrades(self, refs_world, tmp_path):
        taxonomy, refs, seqs = refs_world
        db = Database.build(refs, taxonomy, params=PARAMS, n_partitions=2)
        expected = _taxa(db, seqs)
        five = tmp_path / "five"
        save_database_v2_five_arrays(db, five)
        save_database(db, tmp_path / "three")
        assert len(list(five.glob("*.npy"))) == 10
        for kwargs in ({}, {"mmap": True}, {"verify": True},
                       {"mmap": True, "verify": True}):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                loaded = load_database(five, **kwargs)
            # its locations are uint64 words: packed in memory, never mapped
            assert len(caught) == int(kwargs.get("mmap", False)), kwargs
            assert loaded.mmap_path is None
            assert loaded.format_version == FORMAT_V2
            assert np.array_equal(_taxa(loaded, seqs), expected), kwargs
            loaded.close()
        MetaCache.convert(five, tmp_path / "converted")
        assert _digests(tmp_path / "converted") == _digests(tmp_path / "three")

    @pytest.mark.parametrize("n_partitions", [1, 3])
    def test_pointer_table_directory_loads_and_upgrades(
        self, refs_world, tmp_path, n_partitions
    ):
        taxonomy, refs, seqs = refs_world
        db = Database.build(refs, taxonomy, params=PARAMS, n_partitions=n_partitions)
        expected = _taxa(db, seqs)
        table = tmp_path / "table"
        save_database_ptr_table(db, table)  # leaves the build layout
        save_database(db, tmp_path / "fresh")
        assert len(list(table.glob("*.ptr_*.npy"))) == 2 * n_partitions
        for kwargs in ({}, {"mmap": True}, {"verify": True},
                       {"mmap": True, "verify": True}):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                loaded = load_database(table, **kwargs)
            # hash-table pointers are read into sorted ones, never mapped
            assert len(caught) == int(kwargs.get("mmap", False)), kwargs
            if caught:
                assert "cannot be memory-mapped" in str(caught[0].message)
            assert loaded.mmap_path is None
            assert np.array_equal(_taxa(loaded, seqs), expected), kwargs
            save_database(loaded, tmp_path / "resaved")
            assert _digests(tmp_path / "resaved") == _digests(tmp_path / "fresh")
            loaded.close()
        MetaCache.convert(table, tmp_path / "converted")
        assert _digests(tmp_path / "converted") == _digests(tmp_path / "fresh")

    def test_pointer_table_with_a_duplicated_key_is_rejected(self, refs_world, tmp_path):
        taxonomy, refs, _ = refs_world
        db = Database.build(refs, taxonomy, params=PARAMS)
        save_database_ptr_table(db, tmp_path)
        path = tmp_path / "part0.ptr_keys.npy"
        keys = np.load(path)
        occupied = np.flatnonzero(keys != np.uint32(0xFFFFFFFF))
        blob = bytearray(path.read_bytes())
        at = len(blob) - keys.nbytes + int(occupied[1]) * 4
        blob[at : at + 4] = keys[occupied[0]].tobytes()  # one key, two slots
        path.write_bytes(bytes(blob))
        with pytest.raises(DatabaseFormatError, match="pointer table of partition 0"):
            load_database(tmp_path)

    def test_pointer_table_not_in_feature_order_is_rejected(self, refs_world, tmp_path):
        taxonomy, refs, _ = refs_world
        db = Database.build(refs, taxonomy, params=PARAMS)
        save_database_ptr_table(db, tmp_path)
        keys = np.load(tmp_path / "part0.ptr_keys.npy")
        path = tmp_path / "part0.ptr_values.npy"
        values = np.load(path)
        occupied = np.flatnonzero(keys != np.uint32(0xFFFFFFFF))
        first, last = occupied[np.argsort(keys[occupied])[[0, -1]]]
        values[[first, last]] = values[[last, first]]  # lists swap places
        blob = bytearray(path.read_bytes())
        blob[len(blob) - values.nbytes :] = values.tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(DatabaseFormatError, match="in feature order"):
            load_database(tmp_path)

    def test_legacy_directories_classify_as_a_fresh_build(self, world, tmp_path):
        v1, v2, _, read_file = world
        five = tmp_path / "five"
        save_database_v2_five_arrays(load_database(v2), five)
        table = tmp_path / "table"
        save_database_ptr_table(load_database(v2), table)
        ref = _classify_tsv(tmp_path, v2, read_file, "fresh.tsv", mmap=True)
        assert ref
        assert ref == _classify_tsv(tmp_path, v1, read_file, "v1.tsv")
        assert ref == _classify_tsv(tmp_path, table, read_file, "table.tsv")
        with pytest.warns(UserWarning, match="hash-table pointers"):
            assert ref == _classify_tsv(tmp_path, table, read_file, "tm.tsv", mmap=True)
        with pytest.warns(UserWarning, match="uint64 location words"):
            assert ref == _classify_tsv(tmp_path, five, read_file, "five.tsv", mmap=True)

    def test_convert_cli_writes_no_pointer_table(self, world, tmp_path, capsys):
        _, v2, _, _ = world
        table = tmp_path / "table"
        save_database_ptr_table(load_database(v2), table)
        dst = tmp_path / "converted"
        assert cli_main(["convert", "--db", str(table), "--out", str(dst)]) == 0
        assert "format v2" in capsys.readouterr().out
        assert not list(dst.glob("*ptr_*"))
        assert _digests(dst) == _digests(v2)

    def test_v1_file_with_unsorted_features_rejected(self, world, tmp_path):
        v1, _, _, _ = world
        dst = tmp_path / "unsorted"
        shutil.copytree(v1, dst)
        cache = dst / "database.cache0"
        with np.load(cache) as data:
            arrays = {key: data[key].copy() for key in data.files}
        arrays["features"][[0, 1]] = arrays["features"][[1, 0]]
        with open(cache, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(DatabaseFormatError, match="not strictly ascending"):
            load_database(dst)


def _truncate(directory, name):
    path = directory / name
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])


def _wrong_shape(directory, name):
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    entry = manifest["partitions"][0]
    if name == "manifest.json":  # its own counts
        entry["n_locations"] += 1
    else:
        shape = entry["arrays"][name.split(".")[1]]["shape"]
        shape[0] += 1
    manifest_path.write_text(json.dumps(manifest))


def _rewrite(directory, name, change):
    """Replace array ``name`` by ``change(array)``, manifest and CRC included.

    The checksum is kept valid, so ``verify=True`` cannot catch the
    fault by its CRC: the content checks have to.
    """
    path = directory / name
    array = change(np.load(path))
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    spec = manifest["partitions"][0]["arrays"][name.split(".")[1]]
    spec["dtype"] = array.dtype.str
    spec["shape"] = list(array.shape)
    spec["crc32"] = io_mod._write_npy_aligned(path, array)
    manifest_path.write_text(json.dumps(manifest))


def _set(index, value):
    def change(array):
        array = array.copy()
        array[index] = value(array) if callable(value) else value
        return array
    return change


def _offsets_not_from_zero(directory, name):
    _rewrite(directory, name, _set(0, 1))


def _mid(array):
    return array.size // 2


def _decreasing_offsets(directory, name):
    def change(offsets):
        k = _mid(offsets)
        assert offsets[k + 1] > 0
        return _set(k, offsets[k + 1] + 1)(offsets)
    _rewrite(directory, name, change)


def _offsets_end_short(directory, name):
    _rewrite(directory, name, _set(-1, lambda a: a[-1] - 1))


def _offset_past_locations(directory, name):
    _rewrite(directory, name, lambda a: _set(_mid(a), a[-1] + 7)(a))


def _unsorted_features(directory, name):
    _rewrite(directory, name, lambda a: _set([0, 1], a[[1, 0]])(a))


def _offsets_dtype(directory, name):
    _rewrite(directory, name, lambda a: a.astype("<i8"))


def _missing(directory, name):
    (directory / name).unlink()


UNKNOWN_TAXON = 999_999_999


def _unknown_taxon(directory, name):
    """Point the first target of ``name`` (the metadata) at a taxon
    that ``nodes.dmp`` does not have."""
    path = directory / name
    meta = json.loads(path.read_text())
    meta["targets"][0]["taxon_id"] = UNKNOWN_TAXON
    path.write_text(json.dumps(meta))


_ARRAY_FILES = (
    "part0.locations.npy",
    "part0.targets.npy",
    "part0.features.npy",
    "part0.offsets.npy",
)
_POINTER_FAULTS = [
    (_offsets_not_from_zero, "part0.offsets.npy"),
    (_decreasing_offsets, "part0.offsets.npy"),
    (_offsets_end_short, "part0.offsets.npy"),
    (_offset_past_locations, "part0.offsets.npy"),
    (_unsorted_features, "part0.features.npy"),
    (_offsets_dtype, "part0.offsets.npy"),
]
_MATRIX = (
    [(_truncate, name) for name in _ARRAY_FILES + ("manifest.json",)]
    + [(_wrong_shape, name) for name in _ARRAY_FILES + ("manifest.json",)]
    + _POINTER_FAULTS
    + [(_missing, name) for name in _ARRAY_FILES + ("manifest.json",)]
    + [(_unknown_taxon, "database.meta")]
)


class TestCorruptionMatrix:
    """Every file of a partition x every way it goes bad -> a typed error."""

    @pytest.mark.parametrize(
        "fault, name", _MATRIX, ids=[f"{f.__name__[1:]}-{n}" for f, n in _MATRIX]
    )
    def test_fault_is_a_database_format_error(self, world, tmp_path, fault, name):
        _, v2, _, _ = world
        dst = tmp_path / "copy"
        shutil.copytree(v2, dst)
        fault(dst, name)
        with pytest.raises(DatabaseFormatError):
            load_database(dst)
        with pytest.raises(DatabaseFormatError):
            load_database(dst, mmap=True, verify=True)
        with pytest.raises(DatabaseFormatError):
            MetaCache.open(dst)

    @pytest.mark.parametrize("name", _ARRAY_FILES)
    @pytest.mark.parametrize("mmap", [False, True])
    def test_flipped_payload_byte_needs_the_crc(self, world, tmp_path, name, mmap):
        _, v2, _, _ = world
        dst = tmp_path / "copy"
        shutil.copytree(v2, dst)
        blob = bytearray((dst / name).read_bytes())
        blob[-3] ^= 0x01  # low bits of the last slot / location
        (dst / name).write_bytes(bytes(blob))
        with pytest.raises(DatabaseFormatError, match="checksum mismatch"):
            load_database(dst, mmap=mmap, verify=True)

    def test_corrupt_word_under_plain_mmap_open_then_classify(self, world, tmp_path):
        """A plain mmap open does not scan the words; the query names the partition."""
        _, v2, seqs, _ = world
        dst = tmp_path / "copy"
        shutil.copytree(v2, dst)
        manifest = json.loads((dst / "manifest.json").read_text())
        window_bits = manifest["partitions"][0]["window_bits"]
        path = dst / "part0.locations.npy"
        words = np.load(path)
        words |= np.uint32((0xFFFFFFFF << window_bits) & 0xFFFFFFFF)  # local: all ones
        blob = bytearray(path.read_bytes())
        blob[len(blob) - words.nbytes :] = words.tobytes()
        path.write_bytes(bytes(blob))
        with MetaCache.open(dst, mmap=True) as mc:
            with pytest.raises(DatabaseFormatError, match="partition 0"):
                mc.session().classify(seqs)
        with pytest.raises(DatabaseFormatError, match="outside its target map"):
            MetaCache.open(dst)  # an eager open scans the words it reads

    @pytest.mark.parametrize("fault", [_decreasing_offsets, _offset_past_locations])
    def test_corrupt_offset_under_plain_mmap_open_then_query(
        self, world, tmp_path, fault
    ):
        """A plain mmap open does not scan the offsets; the lookup names the partition."""
        _, v2, _, _ = world
        dst = tmp_path / "copy"
        shutil.copytree(v2, dst)
        fault(dst, "part0.offsets.npy")
        features = np.load(dst / "part0.features.npy")
        db = load_database(dst, mmap=True)
        try:
            with pytest.raises(DatabaseFormatError, match="partition 0"):
                db.query_features(features, 0)
            # rows the fault does not touch still answer
            locations, offsets = db.query_features(features[:1], 0)
            assert offsets.tolist() == [0, locations.size] and locations.size
        finally:
            db.close()

    def test_unknown_taxon_is_named_under_plain_mmap_open(self, world, tmp_path):
        _, v2, _, _ = world
        dst = tmp_path / "copy"
        shutil.copytree(v2, dst)
        _unknown_taxon(dst, "database.meta")
        with pytest.raises(DatabaseFormatError, match=f"target 0 .*{UNKNOWN_TAXON}"):
            MetaCache.open(dst, mmap=True)

    def test_plain_mmap_open_computes_no_crc(self, world, monkeypatch):
        _, v2, seqs, _ = world
        calls = []
        real = zlib.crc32
        monkeypatch.setattr(
            io_mod.zlib, "crc32", lambda *a: calls.append(a) or real(*a)
        )
        db = load_database(v2, mmap=True)
        assert calls == []
        db.close()
        load_database(v2, mmap=True, verify=True).close()
        assert len(calls) == 4 * 2  # four arrays, two partitions


class TestSentinelRegression:
    """Insert -> save -> load -> retrieve of the reserved sentinel key."""

    def test_single_value_insert_rejects_raw_sentinel(self):
        t = SingleValueHashTable(capacity_keys=16)
        with pytest.raises(ValueError, match="reserved as the empty-slot"):
            t.insert(
                np.array([3, 0xFFFFFFFF], dtype=np.uint64),
                np.array([1, 2], dtype=np.uint64),
            )
        # the batch is rejected atomically: nothing was placed
        assert len(t) == 0

    def test_sentinel_feature_survives_save_load_both_formats(self, tmp_path):
        """A build-table feature equal to the sentinel round-trips.

        The build tables reserve the sentinel by clamping it onto
        0xFFFFFFFE; the condensed/persisted pointers and both
        readable disk formats must keep that feature retrievable -- it must not
        vanish from occupied-slot scans on the way to disk and back.
        """
        genomes = GenomeSimulator(seed=5).simulate_collection(2, 1, 3000)
        taxonomy, taxa = build_taxonomy_for_genomes(genomes)
        refs = [
            (g.name, g.scaffolds[0], taxa.target_taxon[i])
            for i, g in enumerate(genomes)
        ]
        db = Database.build(refs, taxonomy, params=PARAMS)
        sentinel = np.array([0xFFFFFFFF], dtype=np.uint64)
        marker = np.array([123456], dtype=np.uint64)
        db.partitions[0].table.insert(sentinel, marker)
        for fmt, mmap in ((1, False), (2, False), (2, True)):
            directory = tmp_path / f"fmt{fmt}-{mmap}"
            if fmt == 1:  # first: the v1 writer leaves the build layout
                save_database_v1(db, directory)
            else:
                save_database(db, directory)
            loaded = load_database(directory, mmap=mmap)
            values, offsets = loaded.partitions[0].condensed.retrieve(sentinel)
            got = values[offsets[0] : offsets[1]]
            assert marker[0] in got.tolist(), (fmt, mmap)

    def test_v1_file_with_raw_sentinel_feature_rejected(self, world, tmp_path):
        """A (corrupt/foreign) v1 cache naming the raw sentinel errors."""
        v1, _, _, _ = world
        dst = tmp_path / "sent"
        shutil.copytree(v1, dst)
        cache = dst / "database.cache0"
        with np.load(cache) as data:
            features = data["features"].copy()
            lengths = data["lengths"]
            locations = data["locations"]
        if features.size == 0:
            pytest.skip("empty partition")
        features[-1] = 0xFFFFFFFF
        with open(cache, "wb") as fh:
            np.savez(fh, features=features, lengths=lengths, locations=locations)
        with pytest.raises(DatabaseFormatError, match="invalid feature"):
            load_database(dst)
