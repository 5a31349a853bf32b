"""Tests for the file-based (pipelined) build path:
:meth:`repro.core.builder.DatabaseBuilder.add_fasta`."""

import numpy as np
import pytest

from repro.core.build import accession_of
from repro.core.builder import DatabaseBuilder
from repro.errors import BuildError
from repro.core.classify import classify_reads
from repro.core.config import MetaCacheParams
from repro.core.database import Database
from repro.core.query import query_database
from repro.genomics.fasta import write_fasta
from repro.genomics.reads import HISEQ, ReadSimulator
from repro.genomics.simulate import GenomeSimulator
from repro.taxonomy.builder import build_taxonomy_for_genomes

PARAMS = MetaCacheParams.small()


class TestAccessionOf:
    def test_plain(self):
        assert accession_of("SYN_000_001 some description") == "SYN_000_001"

    def test_scaffold_suffix_stripped(self):
        assert accession_of("AFS_COW.17 scaffold 17") == "AFS_COW"

    def test_non_numeric_suffix_kept(self):
        assert accession_of("NC_0001.x desc") == "NC_0001.x"

    def test_empty(self):
        assert accession_of("") == ""


def build_from_fasta(paths, taxonomy, acc2tax, params):
    with DatabaseBuilder(taxonomy, params) as builder:
        builder.add_fasta(paths, acc2tax)
        return builder.finalize(condense=False)


class TestBuildFromFasta:
    @pytest.fixture()
    def world(self, tmp_path):
        genomes = GenomeSimulator(seed=31).simulate_collection(2, 2, 3000)
        taxonomy, taxa = build_taxonomy_for_genomes(genomes)
        paths = []
        for i, g in enumerate(genomes):
            p = tmp_path / f"genome{i}.fasta"
            write_fasta(g.to_fasta_records(), p)
            paths.append(p)
        acc2tax = {
            g.accession: taxa.target_taxon[i] for i, g in enumerate(genomes)
        }
        return genomes, taxonomy, taxa, paths, acc2tax

    def test_matches_in_memory_build(self, world):
        genomes, taxonomy, taxa, paths, acc2tax = world
        db_files = build_from_fasta(paths, taxonomy, acc2tax, params=PARAMS)
        refs = [
            (g.name, g.scaffolds[0], taxa.target_taxon[i])
            for i, g in enumerate(genomes)
        ]
        db_mem = Database.build(refs, taxonomy, params=PARAMS)
        reads = ReadSimulator(genomes, seed=1).simulate(HISEQ, 60)
        c_files = classify_reads(
            db_files, query_database(db_files, reads.sequences).candidates
        )
        c_mem = classify_reads(
            db_mem, query_database(db_mem, reads.sequences).candidates
        )
        assert np.array_equal(c_files.taxon, c_mem.taxon)

    def test_deterministic_across_runs(self, world):
        _, taxonomy, _, paths, acc2tax = world
        db1 = build_from_fasta(paths, taxonomy, acc2tax, params=PARAMS)
        db2 = build_from_fasta(paths, taxonomy, acc2tax, params=PARAMS)
        assert [t.name for t in db1.targets] == [t.name for t in db2.targets]

    def test_scaffolded_genome_targets(self, tmp_path):
        sim = GenomeSimulator(seed=32)
        g = sim.simulate_scaffolded_genome(20_000, 8, "cow", "AFS_COW")
        genomes = [g]
        taxonomy, taxa = build_taxonomy_for_genomes(genomes)
        p = tmp_path / "cow.fasta"
        write_fasta(g.to_fasta_records(), p)
        db = build_from_fasta(
            [p], taxonomy, {"AFS_COW": taxa.target_taxon[0]}, params=PARAMS
        )
        # every scaffold becomes its own target, all same taxon
        assert db.n_targets == 8
        assert set(t.taxon_id for t in db.targets) == {taxa.target_taxon[0]}

    def test_missing_accession_raises(self, world):
        _, taxonomy, _, paths, acc2tax = world
        bad = dict(list(acc2tax.items())[1:])  # drop one mapping
        # BuildError derives from KeyError, so pre-builder call sites
        # catching KeyError keep working
        with pytest.raises(KeyError) as exc_info:
            build_from_fasta(paths, taxonomy, bad, params=PARAMS)
        assert isinstance(exc_info.value, BuildError)
        assert exc_info.value.file is not None
