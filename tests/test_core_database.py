"""Tests for Database build, partitioning, layouts and persistence."""

import numpy as np
import pytest

from repro.core.config import MetaCacheParams
from repro.core.database import CondensedIndex, Database, DatabasePartition
from repro.core.io import _condensed_content, load_database, save_database
from repro.genomics.simulate import GenomeSimulator
from repro.gpu.device import Device, DeviceSpec, charge_partitions
from repro.gpu.memory import OutOfDeviceMemory
from repro.taxonomy.builder import build_taxonomy_for_genomes
from repro.warpcore.multi_bucket import MultiBucketHashTable
from repro.warpcore.single_value import SingleValueHashTable

from reference.index_v1 import save_database_v1


@pytest.fixture(scope="module")
def small_world():
    genomes = GenomeSimulator(seed=11).simulate_collection(3, 2, 3000)
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    refs = [
        (g.name, g.scaffolds[0], taxa.target_taxon[i]) for i, g in enumerate(genomes)
    ]
    return genomes, taxonomy, taxa, refs


PARAMS = MetaCacheParams.small()


class TestBuild:
    def test_basic_build(self, small_world):
        _, taxonomy, _, refs = small_world
        db = Database.build(refs, taxonomy, params=PARAMS)
        assert db.n_targets == 6
        assert db.total_windows > 0
        assert db.nbytes > 0
        assert db.n_partitions == 1

    def test_partition_assignment_never_splits_targets(self, small_world):
        _, taxonomy, _, refs = small_world
        db = Database.build(refs, taxonomy, params=PARAMS, n_partitions=3)
        assert db.n_partitions == 3
        parts = {t.partition_id for t in db.targets}
        assert parts <= {0, 1, 2}
        # greedy loading balances bases across partitions
        loads = [0, 0, 0]
        for t in db.targets:
            loads[t.partition_id] += t.length
        assert max(loads) < 2 * min(loads)

    def test_unknown_taxon_rejected(self, small_world):
        _, taxonomy, _, refs = small_world
        bad = [(refs[0][0], refs[0][1], 987654)]
        with pytest.raises(KeyError):
            Database.build(bad, taxonomy, params=PARAMS)

    def test_target_taxa_vector(self, small_world):
        _, taxonomy, taxa, refs = small_world
        db = Database.build(refs, taxonomy, params=PARAMS)
        assert list(db.target_taxa()) == taxa.target_taxon

    def test_short_sequence_yields_no_windows(self, small_world):
        _, taxonomy, taxa, refs = small_world
        tiny = refs + [("tiny", np.zeros(3, dtype=np.uint8), taxa.target_taxon[0])]
        db = Database.build(tiny, taxonomy, params=PARAMS)
        assert db.targets[-1].n_windows == 0

    def test_device_memory_accounting(self, small_world):
        _, taxonomy, _, refs = small_world
        devices = [Device(device_id=i) for i in range(2)]
        db = Database.build(refs, taxonomy, params=PARAMS, n_partitions=2)
        charge_partitions(db, devices)
        assert [d.memory.allocated_bytes for d in devices] == [
            p.nbytes for p in db.partitions
        ]
        for d in devices:
            d.memory.reset()
        assert all(d.memory.allocated_bytes == 0 for d in devices)

    def test_too_small_device_raises(self, small_world):
        _, taxonomy, _, refs = small_world
        tiny_spec = DeviceSpec(
            name="tiny",
            memory_bytes=1024,  # 1 KiB: nothing fits
            mem_bandwidth=1e9,
            sm_count=1,
            cores_per_sm=1,
            clock_hz=1e9,
            nvlink_bw=1e9,
            pcie_bw=1e9,
        )
        db = Database.build(refs, taxonomy, params=PARAMS, n_partitions=1)
        with pytest.raises(OutOfDeviceMemory):
            charge_partitions(db, [Device(device_id=0, spec=tiny_spec)])

    def test_fewer_devices_than_partitions_rejected(self, small_world):
        _, taxonomy, _, refs = small_world
        db = Database.build(refs, taxonomy, params=PARAMS, n_partitions=2)
        with pytest.raises(ValueError):
            charge_partitions(db, [Device(device_id=0)])


class TestCondensedIndex:
    def test_matches_build_layout(self):
        rng = np.random.default_rng(0)
        table = MultiBucketHashTable(capacity_values=2048, bucket_size=4)
        keys = rng.integers(0, 50, 500).astype(np.uint64)
        # locations: target << 32 | window, as the condensed words hold
        vals = (rng.integers(0, 64, 500, dtype=np.uint64) << np.uint64(32)) | (
            rng.integers(0, 2**20, 500, dtype=np.uint64)
        )
        table.insert(keys, vals)
        cond = CondensedIndex.from_table(table)
        queries = np.arange(60, dtype=np.uint64)
        v1, o1 = table.retrieve(queries)
        v2, o2 = cond.retrieve(queries)
        assert np.array_equal(o1, o2)
        for i in range(queries.size):
            assert sorted(v1[o1[i] : o1[i + 1]].tolist()) == sorted(
                v2[o2[i] : o2[i + 1]].tolist()
            )

    def test_empty_table(self):
        table = MultiBucketHashTable(capacity_values=64)
        cond = CondensedIndex.from_table(table)
        v, o = cond.retrieve(np.array([1, 2], dtype=np.uint64))
        assert v.size == 0 and list(o) == [0, 0, 0]

    def test_nbytes_positive(self):
        table = MultiBucketHashTable(capacity_values=64)
        table.insert(
            np.array([1], dtype=np.uint64), np.array([2], dtype=np.uint64)
        )
        assert CondensedIndex.from_table(table).nbytes > 0


class TestPersistence:
    def test_save_load_roundtrip(self, small_world, tmp_path):
        _, taxonomy, _, refs = small_world
        db = Database.build(refs, taxonomy, params=PARAMS, n_partitions=2)
        files = save_database_v1(db, tmp_path)
        assert (tmp_path / "database.meta").exists()
        assert (tmp_path / "database.cache0").exists()
        assert (tmp_path / "database.cache1").exists()
        assert len(files) == 5  # meta + 2 dumps + 2 caches
        db2 = load_database(tmp_path)
        assert db2.n_targets == db.n_targets
        assert db2.params == db.params
        assert [t.name for t in db2.targets] == [t.name for t in db.targets]

    def test_load_rejects_bad_version(self, small_world, tmp_path):
        _, taxonomy, _, refs = small_world
        db = Database.build(refs, taxonomy, params=PARAMS)
        save_database_v1(db, tmp_path)
        meta = (tmp_path / "database.meta").read_text()
        (tmp_path / "database.meta").write_text(
            meta.replace('"format_version": 1', '"format_version": 99')
        )
        with pytest.raises(ValueError):
            load_database(tmp_path)

    def test_load_onto_devices(self, small_world, tmp_path):
        _, taxonomy, _, refs = small_world
        db = Database.build(refs, taxonomy, params=PARAMS, n_partitions=2)
        save_database(db, tmp_path)
        devices = [Device(device_id=i) for i in range(2)]
        charge_partitions(load_database(tmp_path), devices)
        assert all(d.memory.allocated_bytes > 0 for d in devices)

    def test_save_condensed_database(self, small_world, tmp_path):
        """Saving after condense() must produce identical files content-wise."""
        _, taxonomy, _, refs = small_world
        db = Database.build(refs, taxonomy, params=PARAMS)
        save_database_v1(db, tmp_path / "build")
        db.condense()
        save_database_v1(db, tmp_path / "cond")
        for name in ("database.cache0",):
            a = np.load(tmp_path / "build" / name)
            b = np.load(tmp_path / "cond" / name)
            assert np.array_equal(a["features"], b["features"])
            assert np.array_equal(a["lengths"], b["lengths"])
            # location lists may be permuted within a feature; compare sorted
            off = np.concatenate(([0], np.cumsum(a["lengths"])))
            for i in range(a["features"].size):
                assert sorted(a["locations"][off[i]:off[i+1]].tolist()) == sorted(
                    b["locations"][off[i]:off[i+1]].tolist()
                )

    @pytest.mark.parametrize("case", ["built", "zero_length_bucket", "empty_partition"])
    def test_condensed_content_matches_slice_loop(self, small_world, tmp_path, case):
        """The vectorized bucket gather equals the per-feature slice loop,
        and what it serializes survives a v1 and a v2 save/load."""
        _, taxonomy, _, refs = small_world
        if case == "empty_partition":
            # one target, two partitions: partition 1 holds no feature
            db = Database.build(refs[:1], taxonomy, params=PARAMS, n_partitions=2)
        else:
            db = Database.build(refs, taxonomy, params=PARAMS)
        db.condense()
        if case == "zero_length_bucket":
            # a hand-built index whose middle feature points at no locations
            pointers = SingleValueHashTable(capacity_keys=16)
            pointers.insert(
                np.array([5, 9, 7], dtype=np.uint64),
                np.array([(2 << 24) | 2, (0 << 24) | 2, (2 << 24) | 0], dtype=np.uint64),
            )
            index = CondensedIndex.from_locations(
                np.array([10, 11, 12, 13], dtype=np.uint64), pointers
            )
            parts = [DatabasePartition(partition_id=0, table=None, condensed=index)]
        else:
            parts = db.partitions
        for part in parts:
            features, lengths, locations = _condensed_content(part)
            cond = part.condensed
            packed, found = cond.pointers.retrieve(features)
            assert found.all()
            chunks = []  # the reference: one Python slice per feature
            for p, n in zip(packed.tolist(), lengths.tolist()):
                assert p & 0xFFFFFF == n
                chunks.append(cond.expand(cond.locations[p >> 24 : (p >> 24) + n]))
            expected = (
                np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.uint64)
            )
            assert np.array_equal(locations, expected)
            assert np.all(np.diff(features.astype(np.int64)) > 0)
        if case == "zero_length_bucket":
            assert lengths.tolist() == [2, 0, 2]
            assert locations.tolist() == [12, 13, 10, 11]
            return
        if case == "empty_partition":
            assert _condensed_content(db.partitions[1])[0].size == 0
        for fmt, save in ((1, save_database_v1), (2, save_database)):
            save(db, tmp_path / f"v{fmt}")
            loaded = load_database(tmp_path / f"v{fmt}")
            for a, b in zip(db.partitions, loaded.partitions):
                for x, y in zip(_condensed_content(a), _condensed_content(b)):
                    assert np.array_equal(x, y)
