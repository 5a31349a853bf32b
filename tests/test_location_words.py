"""32-bit location words at rest, pinned against the uint64 layout.

A condensed partition stores every location as a uint32 word
``local << window_bits | window`` plus a target map (the ascending
target ids present in the partition); ``CondensedIndex.retrieve``
expands the words back to the uint64 ``target << 32 | window`` every
query layer sees.  The oracle is the uint64 writer and reader kept in
``tests/reference/index_u64.py``:

- for random partitions, target and window counts (a window id of
  ``2^window_bits - 1`` included) and feature batches with misses,
  ``query_features`` on eager and mmap opens returns the oracle's
  arrays byte for byte, and classification writes the same TSV bytes
  as the uint64 directory converted;
- a legacy uint64 directory is refused by every open, without a
  warning, and ``convert`` rewrites it to uint32 words that classify
  to the same bytes;
- with the word width patched small, the builder refuses a partition
  that would not fit with a ``ConfigError`` naming the
  ``n_partitions`` that does, and converting a legacy directory that
  no longer fits raises ``DatabaseFormatError``.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference.index_u64 import U64Index, save_database_u64
from reference.index_v1 import save_database_v1
from repro.api import ConfigError, DatabaseFormatError, MetaCache, TsvSink
from repro.core import database as database_mod
from repro.core.builder import DatabaseBuilder
from repro.core.config import MetaCacheParams
from repro.core.database import (
    CondensedIndex,
    Database,
    DatabasePartition,
    TargetRecord,
)
from repro.core.io import load_database, save_database
from repro.core.legacy import convert_database
from repro.genomics.alphabet import decode_sequence
from repro.genomics.fastq import FastqRecord, write_fastq
from repro.genomics.reads import HISEQ, ReadSimulator
from repro.genomics.simulate import GenomeSimulator
from repro.taxonomy.builder import build_taxonomy_for_genomes
from repro.warpcore import MultiBucketHashTable

PARAMS = MetaCacheParams.small()
_FIXTURES_OK = [HealthCheck.function_scoped_fixture]


def _digests(directory):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(directory).iterdir())
    }


def _tsv(db_dir, read_file, out, **open_kwargs) -> bytes:
    with MetaCache.open(db_dir, **open_kwargs) as mc:
        with mc.session() as session, TsvSink(out) as sink:
            session.classify_files(read_file, sink=sink)
    return out.read_bytes()


def _write_reads(genomes, path, n_reads, seed):
    reads = ReadSimulator(genomes, seed=seed).simulate(HISEQ, n_reads)
    write_fastq(
        [
            FastqRecord(f"r{i}", decode_sequence(s), "I" * s.size)
            for i, s in enumerate(reads.sequences)
        ],
        path,
    )
    return path


def _simulated(seed, n_genera, n_species, length):
    genomes = GenomeSimulator(seed=seed).simulate_collection(
        n_genera, n_species, length
    )
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    refs = [
        (g.name, g.scaffolds[0], taxa.target_taxon[i])
        for i, g in enumerate(genomes)
    ]
    return genomes, taxonomy, refs


@pytest.fixture(scope="module")
def one_taxon():
    _, taxonomy, refs = _simulated(3, 1, 1, 1000)
    return taxonomy, refs[0][2]


@st.composite
def _contents(draw):
    """Build-layout partitions of random targets, windows and features."""
    n_partitions = draw(st.integers(1, 3))
    n_targets = draw(st.integers(1, 12))
    home = [draw(st.integers(0, n_partitions - 1)) for _ in range(n_targets)]
    window_bits = draw(st.integers(0, 28))  # 12 targets need 4 of the 32 bits
    top = (1 << window_bits) - 1
    windows = st.integers(0, top)
    rows = draw(
        st.lists(
            st.tuples(st.integers(0, 199), st.integers(0, n_targets - 1), windows),
            min_size=0,
            max_size=150,
        )
    )
    # the all-ones window id of the drawn width, on a drawn target
    edge = draw(st.integers(0, n_targets - 1))
    rows.append((draw(st.integers(0, 199)), edge, top))
    queries = draw(st.lists(st.integers(0, 260), min_size=0, max_size=80))
    return n_partitions, home, rows, queries


def _hand_built(one_taxon, n_partitions, home, rows) -> Database:
    taxonomy, taxon = one_taxon
    n_windows = [1] * len(home)
    for _, target, window in rows:
        n_windows[target] = max(n_windows[target], window + 1)
    tables = []
    for p in range(n_partitions):
        mine = [(f, t << 32 | w) for f, t, w in rows if home[t] == p]
        table = MultiBucketHashTable(capacity_values=512, max_locations_per_key=None)
        if mine:
            table.insert(*np.array(mine, dtype=np.uint64).T)
        tables.append(table)
    targets = [
        TargetRecord(t, f"t{t}", taxon, n_windows[t], n_windows[t], home[t])
        for t in range(len(home))
    ]
    partitions = [DatabasePartition(p, table) for p, table in enumerate(tables)]
    return Database(PARAMS, taxonomy, partitions, targets)


class TestQueryFeaturesMatchTheU64Oracle:
    @settings(max_examples=60, deadline=None, suppress_health_check=_FIXTURES_OK)
    @given(content=_contents())
    def test_eager_and_mmap_equal_the_oracle(
        self, one_taxon, tmp_path_factory, content
    ):
        n_partitions, home, rows, queries = content
        db = _hand_built(one_taxon, n_partitions, home, rows)
        features = np.array(queries, dtype=np.uint64)
        built = [db.query_features(features, p) for p in range(n_partitions)]
        root = tmp_path_factory.mktemp("words")
        save_database_u64(db, root / "u64")  # condenses db in place
        save_database(db, root / "u32")
        manifest = json.loads((root / "u32" / "manifest.json").read_text())
        loaded = [load_database(root / "u32"), load_database(root / "u32", mmap=True)]
        for pid in range(n_partitions):
            entry = manifest["partitions"][pid]
            for key in ("single.words", "multi.locations"):
                assert entry["arrays"][key]["dtype"] == "<u4"
            present = sorted({t for _, t, _ in rows if home[t] == pid})
            assert np.load(root / "u32" / f"part{pid}.targets.npy").tolist() == present
            mine = [w for _, t, w in rows if home[t] == pid]
            assert entry["window_bits"] == max(mine, default=0).bit_length()
            want, want_offsets = U64Index(root / "u64", pid).retrieve(features)
            for got, offsets in [built[pid]] + [
                layout.query_features(features, pid) for layout in [db] + loaded
            ]:
                assert got.dtype == np.uint64
                assert got.tobytes() == want.tobytes()
                assert offsets.tobytes() == want_offsets.tobytes()
        for layout in loaded:
            layout.close()


class TestClassificationBytes:
    @settings(max_examples=8, deadline=None, suppress_health_check=_FIXTURES_OK)
    @given(
        n_species=st.integers(1, 3),
        length=st.integers(1500, 5000),
        n_partitions=st.integers(1, 3),
        seed=st.integers(0, 50),
    )
    def test_tsv_identical_to_the_u64_layout(
        self, tmp_path_factory, n_species, length, n_partitions, seed
    ):
        genomes, taxonomy, refs = _simulated(seed, 2, n_species, length)
        db = Database.build(refs, taxonomy, params=PARAMS, n_partitions=n_partitions)
        root = tmp_path_factory.mktemp("tsv")
        save_database_u64(db, root / "u64")
        save_database(db, root / "u32")
        reads = _write_reads(genomes, root / "reads.fastq", 40, seed)
        convert_database(root / "u64", root / "u64-converted")
        want = _tsv(root / "u64-converted", reads, root / "u64.tsv")
        assert want
        assert _tsv(root / "u32", reads, root / "eager.tsv") == want
        assert _tsv(root / "u32", reads, root / "mmap.tsv", mmap=True) == want


@pytest.fixture(scope="module")
def legacy(tmp_path_factory):
    """A 2-partition database as a uint64 directory, a fresh one, and reads."""
    genomes, taxonomy, refs = _simulated(23, 3, 2, 5000)
    db = Database.build(refs, taxonomy, params=PARAMS, n_partitions=2)
    root = tmp_path_factory.mktemp("legacy")
    save_database_u64(db, root / "u64")
    save_database(db, root / "fresh")
    reads = _write_reads(genomes, root / "reads.fastq", 80, 31)
    return root, reads


class TestLegacyU64Directory:
    def test_refused_then_converted_classifies_the_same(
        self, legacy, tmp_path
    ):
        root, reads = legacy
        want = _tsv(root / "fresh", reads, root / "fresh.tsv", mmap=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mmap in (False, True):
                with pytest.raises(DatabaseFormatError, match="convert"):
                    _tsv(root / "u64", reads, root / "refused.tsv", mmap=mmap)
            MetaCache.convert(root / "u64", tmp_path / "converted")
            eager = _tsv(tmp_path / "converted", reads, root / "eager.tsv")
            mapped = _tsv(tmp_path / "converted", reads, root / "mmap.tsv", mmap=True)
        assert eager == mapped == want

    def test_mmap_open_of_a_legacy_directory_is_not_mmap_backed(self, legacy, tmp_path):
        root, _ = legacy
        with pytest.raises(DatabaseFormatError, match="uint64|hash-table pointers"):
            load_database(root / "u64", mmap=True)
        convert_database(root / "u64", tmp_path / "converted")
        db = load_database(tmp_path / "converted", mmap=True)
        assert db.mmap_path == tmp_path / "converted"
        assert db.partitions[0].condensed.content()[2].dtype == np.uint32
        db.close()

    def test_convert_rewrites_uint32_words(self, legacy, tmp_path):
        root, _ = legacy
        MetaCache.convert(root / "u64", tmp_path / "converted")
        manifest = json.loads((tmp_path / "converted" / "manifest.json").read_text())
        for entry in manifest["partitions"]:
            for key in ("single.words", "multi.locations"):
                assert entry["arrays"][key]["dtype"] == "<u4"
        assert _digests(tmp_path / "converted") == _digests(root / "fresh")

    def test_u32_directory_is_smaller(self, legacy):
        root, _ = legacy
        for pid in range(2):
            wide = np.load(root / "u64" / f"part{pid}.locations.npy")
            narrow = [
                np.load(root / "fresh" / f"part{pid}.{key}.npy")
                for key in ("single.words", "multi.locations")
            ]
            assert sum(a.size for a in narrow) == wide.size
            assert sum(a.nbytes for a in narrow) * 2 == wide.nbytes


def _suggested(error: ConfigError) -> int:
    return int(re.search(r"n_partitions=(\d+) \(", str(error)).group(1))


class TestTargetMap:
    """``pack_locations`` ranks targets by a bincount and a running sum;
    ``np.unique(..., return_inverse=True)`` is the oracle."""

    @staticmethod
    def _oracle(locations):
        targets, local = np.unique(
            (locations >> np.uint64(32)).astype(np.uint32), return_inverse=True
        )
        window = (locations & np.uint64(0xFFFFFFFF)).astype(np.uint32)
        bits = int(window.max(initial=0)).bit_length()
        return targets, local.astype(np.uint32) << np.uint32(bits) | window

    @settings(max_examples=300, deadline=None)
    @given(
        ids=st.lists(st.integers(0, 600), max_size=40),
        far=st.booleans(),
        windows=st.lists(st.integers(0, 70), min_size=1, max_size=5),
        n=st.integers(0, 200),
        seed=st.integers(0, 2**16),
    )
    def test_equals_unique(self, ids, far, windows, n, seed):
        # gappy ids; with ``far`` one past every location count
        ids = ids + [2**31 + 5] if far else ids
        rng = np.random.default_rng(seed)
        if not ids:
            n = 0
        target = rng.choice(np.array(ids or [0], dtype=np.uint64), size=n)
        window = rng.choice(np.array(windows, dtype=np.uint64), size=n)
        locations = target << np.uint64(32) | window
        index = CondensedIndex.from_content(
            np.arange(n, dtype=np.uint32), np.ones(n, dtype=np.int64), locations
        )
        assert database_mod.pack_locations(locations)[2] == index.window_bits
        targets, words = self._oracle(locations)
        stored = index.content()[2]
        assert index.targets.dtype == np.uint32 and stored.dtype == np.uint32
        assert np.array_equal(index.targets, targets)
        assert np.array_equal(stored, words)
        assert np.array_equal(index.expand(stored), locations)

    def test_targets_cut_whole_at_the_cap(self):
        """A target whose every feature is some earlier target's keeps no
        location at cap 1, so the map skips its id."""
        genomes = GenomeSimulator(seed=7).simulate_collection(1, 2, 2000)
        taxonomy, taxa = build_taxonomy_for_genomes(genomes)
        refs = [(g.name, g.scaffolds[0], taxa.target_taxon[i])
                for i, g in enumerate(genomes)]
        builder = DatabaseBuilder(
            taxonomy, MetaCacheParams.small(max_locations_per_feature=1)
        )
        for ref in [refs[0], refs[0], refs[1], refs[0]]:
            builder.add_reference(*ref)
        index = builder.finalize().partitions[0].condensed
        stored = index.content()[2]
        locations = index.expand(stored)
        assert 1 not in index.targets and 3 not in index.targets
        targets, words = self._oracle(locations)
        assert np.array_equal(index.targets, targets)
        assert np.array_equal(stored, words)


class TestWordCapacity:
    WORD_BITS = 10  # 4 simulated 3000-base targets of 181 windows: 2 bits left

    def test_builder_names_the_partitions_that_fit(self, monkeypatch):
        _, taxonomy, refs = _simulated(23, 4, 3, 3000)
        monkeypatch.setattr(database_mod, "LOCATION_WORD_BITS", self.WORD_BITS)
        n_partitions, attempts = 1, 0
        while True:
            attempts += 1
            try:
                db = Database.build(
                    refs, taxonomy, params=PARAMS, n_partitions=n_partitions
                )
                break
            except ConfigError as exc:
                assert f"n_partitions={n_partitions};" in str(exc)
                suggested = _suggested(exc)
                assert suggested > n_partitions
                if suggested - 1 > n_partitions:  # the smallest that fits
                    with pytest.raises(ConfigError):
                        Database.build(
                            refs, taxonomy, params=PARAMS, n_partitions=suggested - 1
                        )
                n_partitions = suggested
        assert attempts > 1 and n_partitions > 1
        for part in db.partitions:  # it fits, so the build indexed it
            cond = part.condensed
            local_bits = max(0, cond.targets.size - 1).bit_length()
            assert local_bits + cond.window_bits <= self.WORD_BITS

    def test_extend_is_refused_too(self, monkeypatch):
        _, taxonomy, refs = _simulated(23, 4, 3, 3000)
        monkeypatch.setattr(database_mod, "LOCATION_WORD_BITS", self.WORD_BITS)
        db = Database.build(refs[:4], taxonomy, params=PARAMS)
        builder = DatabaseBuilder.from_database(db)
        with pytest.raises(ConfigError, match=r"n_partitions=2 \("):
            builder.add_reference(*refs[4])
        assert builder.stats.n_targets == 4  # the refused target left no trace

    def test_a_single_target_too_long_for_any_partitioning(self, monkeypatch):
        _, taxonomy, refs = _simulated(23, 1, 1, 3000)
        monkeypatch.setattr(database_mod, "LOCATION_WORD_BITS", 7)  # 181 windows
        with pytest.raises(ConfigError, match="no partitioning fits"):
            Database.build(refs, taxonomy, params=PARAMS)

    def test_condensing_content_wider_than_a_word_is_refused(self):
        """Three targets (two local bits) with 32-bit windows need 34 bits."""
        table = MultiBucketHashTable(capacity_values=64)
        ids = np.array([0, 3, 2**32 - 3], dtype=np.uint64)
        locations = ids << np.uint64(32) | np.uint64(2**32 - 1)
        table.insert(np.arange(3, dtype=np.uint64), locations)
        with pytest.raises(ValueError, match="3 targets .* do not fit a 32-bit"):
            CondensedIndex.from_table(table)

    def test_legacy_directories_that_no_longer_fit(self, legacy, monkeypatch, tmp_path):
        root, _ = legacy
        save_database_v1(load_database(root / "fresh"), tmp_path / "v1")
        monkeypatch.setattr(database_mod, "LOCATION_WORD_BITS", self.WORD_BITS - 2)
        for directory in (root / "u64", tmp_path / "v1", root / "fresh"):
            with pytest.raises(DatabaseFormatError):
                convert_database(directory, tmp_path / "out")
        with pytest.raises(DatabaseFormatError):
            load_database(root / "fresh")
        with pytest.raises(DatabaseFormatError, match="cannot be packed"):
            convert_database(root / "u64", tmp_path / "out")
        assert not (tmp_path / "out").exists()


def test_corrupt_word_copy_is_caught_on_eager_open(legacy, tmp_path):
    """An eager open scans the words it reads; see TestCorruptionMatrix for mmap."""
    root, _ = legacy
    dst = tmp_path / "copy"
    shutil.copytree(root / "fresh", dst)
    path = dst / "part1.single.words.npy"
    words = np.load(path)
    blob = bytearray(path.read_bytes())
    blob[-1] = 0xFF  # the last word's local field is all ones
    path.write_bytes(bytes(blob))
    assert words.size
    with pytest.raises(DatabaseFormatError, match="outside its target map"):
        load_database(dst)
