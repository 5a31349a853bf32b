"""Failure injection: corrupted inputs and resource exhaustion.

A production system must fail loudly and precisely, never silently
misclassify.  These tests corrupt databases, taxonomies and inputs in
targeted ways and assert the failure mode.
"""

import json

import numpy as np
import pytest

from repro.core import Database, MetaCacheParams, load_database
from repro.genomics.simulate import GenomeSimulator
from repro.taxonomy.builder import build_taxonomy_for_genomes
from repro.taxonomy.ncbi import load_ncbi_dump
from repro.taxonomy.ranks import Rank
from repro.taxonomy.tree import Taxonomy, TaxonomyError

from paper.gpu.device import Device, DeviceSpec, charge_partitions
from paper.gpu.memory import OutOfDeviceMemory
from reference.index_v1 import save_database_v1

PARAMS = MetaCacheParams.small()


@pytest.fixture()
def saved_db(tmp_path):
    genomes = GenomeSimulator(seed=71).simulate_collection(2, 2, 2000)
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    refs = [
        (g.name, g.scaffolds[0], taxa.target_taxon[i]) for i, g in enumerate(genomes)
    ]
    db = Database.build(refs, taxonomy, params=PARAMS, n_partitions=2)
    save_database_v1(db, tmp_path)  # the legacy layout these tests garble
    return tmp_path, db


class TestCorruptDatabase:
    def test_missing_cache_file(self, saved_db):
        path, _ = saved_db
        (path / "database.cache1").unlink()
        with pytest.raises(FileNotFoundError):
            load_database(path)

    def test_truncated_locations(self, saved_db):
        path, _ = saved_db
        with np.load(path / "database.cache0") as data:
            features = data["features"]
            lengths = data["lengths"]
            locations = data["locations"][:-3]  # drop the tail
        with open(path / "database.cache0", "wb") as fh:
            np.savez(fh, features=features, lengths=lengths, locations=locations)
        with pytest.raises(ValueError, match="corrupt location array"):
            load_database(path)

    def test_garbled_meta_json(self, saved_db):
        path, _ = saved_db
        (path / "database.meta").write_text("{not json")
        with pytest.raises(json.JSONDecodeError):
            load_database(path)

    def test_newer_version_distinct_error(self, saved_db):
        """A v999 database errors as 'newer version', naming the path."""
        path, _ = saved_db
        meta = json.loads((path / "database.meta").read_text())
        meta["format_version"] = 999
        (path / "database.meta").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="written by a newer version") as exc:
            load_database(path)
        assert str(path / "database.meta") in str(exc.value)

    def test_non_integer_version_is_not_a_database(self, saved_db):
        """A junk format_version errors as 'not a database', with path."""
        path, _ = saved_db
        meta = json.loads((path / "database.meta").read_text())
        meta["format_version"] = "yes"
        (path / "database.meta").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="not a MetaCache database") as exc:
            load_database(path)
        assert str(path / "database.meta") in str(exc.value)

    def test_missing_taxonomy_dump(self, saved_db):
        path, _ = saved_db
        (path / "nodes.dmp").unlink()
        with pytest.raises(FileNotFoundError):
            load_database(path)


class TestCorruptTaxonomy:
    def test_cycle_detected(self):
        with pytest.raises(TaxonomyError, match="cycle"):
            Taxonomy(
                [
                    (1, 1, Rank.ROOT, "root"),
                    (2, 3, Rank.GENUS, "a"),
                    (3, 2, Rank.GENUS, "b"),
                ]
            )

    def test_two_roots_rejected(self):
        with pytest.raises(TaxonomyError, match="exactly one root"):
            Taxonomy(
                [(1, 1, Rank.ROOT, "r1"), (2, 2, Rank.ROOT, "r2")]
            )

    def test_malformed_dump_lines_skipped(self, tmp_path):
        """Short lines in dumps are tolerated, valid nodes load."""
        (tmp_path / "nodes.dmp").write_text(
            "1\t|\t1\t|\tno rank\t|\n"
            "garbage line\n"
            "2\t|\t1\t|\tspecies\t|\n"
        )
        (tmp_path / "names.dmp").write_text(
            "1\t|\troot\t|\t\t|\tscientific name\t|\n"
            "2\t|\tsp\t|\t\t|\tscientific name\t|\n"
        )
        t = load_ncbi_dump(tmp_path / "nodes.dmp", tmp_path / "names.dmp")
        assert len(t) == 2

    def test_dump_with_unknown_rank_degrades(self, tmp_path):
        (tmp_path / "nodes.dmp").write_text(
            "1\t|\t1\t|\tno rank\t|\n2\t|\t1\t|\tcohort\t|\n"
        )
        (tmp_path / "names.dmp").write_text(
            "1\t|\troot\t|\t\t|\tscientific name\t|\n"
        )
        t = load_ncbi_dump(tmp_path / "nodes.dmp", tmp_path / "names.dmp")
        assert t.rank_of(2) == Rank.SEQUENCE  # unknown rank -> 'no rank'


class TestResourceExhaustion:
    def test_load_onto_too_small_device(self, saved_db):
        path, _ = saved_db
        tiny = DeviceSpec(
            name="tiny", memory_bytes=64, mem_bandwidth=1e9, sm_count=1,
            cores_per_sm=1, clock_hz=1e9, nvlink_bw=1e9, pcie_bw=1e9,
        )
        with pytest.raises(OutOfDeviceMemory):
            charge_partitions(
                load_database(path), [Device(0, tiny), Device(1, tiny)]
            )

    def test_partial_device_allocations_released(self, saved_db):
        """After a failed multi-device placement, the error is raised and
        earlier allocations stay visible for diagnosis, then release."""
        path, _ = saved_db
        big = Device(0)
        tiny = Device(
            1,
            DeviceSpec(
                name="tiny", memory_bytes=64, mem_bandwidth=1e9, sm_count=1,
                cores_per_sm=1, clock_hz=1e9, nvlink_bw=1e9, pcie_bw=1e9,
            ),
        )
        with pytest.raises(OutOfDeviceMemory):
            charge_partitions(load_database(path), [big, tiny])
        # the first partition landed on the big device before failure
        assert big.memory.allocated_bytes > 0
        big.memory.reset()
        assert big.memory.allocated_bytes == 0


class TestDegenerateInputs:
    def test_empty_reference_set(self):
        genomes = GenomeSimulator(seed=1).simulate_collection(1, 1, 2000)
        taxonomy, _ = build_taxonomy_for_genomes(genomes)
        db = Database.build([], taxonomy, params=PARAMS, n_partitions=1)
        assert db.n_targets == 0
        from repro.core import classify_reads, query_database

        res = query_database(db, [np.zeros(50, dtype=np.uint8)])
        cls = classify_reads(db, res.candidates)
        assert cls.n_classified == 0

    def test_all_ambiguous_reference(self):
        genomes = GenomeSimulator(seed=1).simulate_collection(1, 1, 2000)
        taxonomy, taxa = build_taxonomy_for_genomes(genomes)
        refs = [("all-N", np.full(500, 255, dtype=np.uint8), taxa.target_taxon[0])]
        db = Database.build(refs, taxonomy, params=PARAMS)
        # windows exist, but no feature was inserted
        assert db.partitions[0].table.stored_values == 0
