"""Tests for the Kraken2-like and MetaCache-CPU baselines."""

import dataclasses

import numpy as np
import pytest

from paper.baselines.kraken2 import (
    Kraken2Classifier,
    Kraken2Params,
    MinimizerLcaTable,
    extract_minimizers,
)
from paper.baselines.metacache_cpu import MetaCacheCpu
from repro.core.classify import UNCLASSIFIED, classify_reads
from repro.core.config import MetaCacheParams
from repro.core.database import Database
from repro.core.query import query_database
from repro.core.stats import evaluate_accuracy
from repro.genomics.alphabet import encode_sequence
from repro.genomics.reads import HISEQ, ReadProfile, ReadSimulator
from repro.genomics.simulate import GenomeSimulator
from repro.pipeline.packed import PackedReads
from repro.taxonomy.builder import build_taxonomy_for_genomes
from repro.taxonomy.ranks import Rank

PARAMS = MetaCacheParams.small()
K2_PARAMS = Kraken2Params.small()


@pytest.fixture(scope="module")
def world():
    genomes = GenomeSimulator(seed=41).simulate_collection(3, 2, 4000)
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    refs = [
        (g.name, g.scaffolds[0], taxa.target_taxon[i]) for i, g in enumerate(genomes)
    ]
    return genomes, taxonomy, taxa, refs


class TestMinimizers:
    def test_count_bounded(self):
        codes = encode_sequence("ACGTACGTACGTACGTACGTACGT")
        mins = extract_minimizers(codes, m=8, window=4)
        n_kmers = codes.size - 8 + 1
        assert 0 < mins.size <= n_kmers

    def test_subsampling_reduces(self):
        rng = np.random.default_rng(0)
        codes = rng.integers(0, 4, 5000).astype(np.uint8)
        mins = extract_minimizers(codes, m=12, window=8)
        kmers = codes.size - 12 + 1
        # expected distinct-run count ~ 2*kmers/(window+1)
        assert mins.size < 0.5 * kmers

    def test_window_one_is_all_kmers(self):
        rng = np.random.default_rng(1)
        codes = rng.integers(0, 4, 100).astype(np.uint8)
        mins = extract_minimizers(codes, m=8, window=1, distinct_runs=False)
        assert mins.size == 100 - 8 + 1

    def test_contained_in_genome_minimizers(self):
        """A read's minimizers (mostly) occur among its genome's."""
        rng = np.random.default_rng(2)
        genome = rng.integers(0, 4, 3000).astype(np.uint8)
        read = genome[1000:1100]
        g = set(extract_minimizers(genome, 8, 4).tolist())
        r = extract_minimizers(read, 8, 4)
        hit = sum(1 for x in r.tolist() if x in g)
        assert hit / r.size > 0.9  # boundary windows may differ

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            extract_minimizers(np.zeros(10, dtype=np.uint8), 4, 0)

    def test_ambiguous_bases_skipped(self):
        # an all-N sequence yields nothing
        assert extract_minimizers(encode_sequence("N" * 50), 8, 4).size == 0
        # N-covering m-mers never contribute: every reported minimizer
        # equals the hash of some valid m-mer of the sequence
        from repro.genomics.kmers import valid_canonical_kmers
        from repro.hashing.hashes import fmix64

        seq = "ACGTACGTGG" + "N" * 5 + "TTGCACGTAC"
        codes = encode_sequence(seq)
        mins = set(extract_minimizers(codes, m=8, window=2).tolist())
        valid_hashes = set(fmix64(valid_canonical_kmers(codes, 8)).tolist())
        assert mins <= valid_hashes

    def test_short_sequence(self):
        assert extract_minimizers(np.zeros(3, dtype=np.uint8), 8, 4).size == 0


class TestMinimizerLcaTable:
    def test_unique_reference_keeps_taxon(self, world):
        _, taxonomy, taxa, _ = world
        t = MinimizerLcaTable(taxonomy)
        t.add_reference(np.array([10, 20], dtype=np.uint64), taxa.target_taxon[0])
        t.finalize()
        dense = t.lookup_dense(np.array([10, 20, 99], dtype=np.uint64))
        assert dense[2] == -1
        assert taxonomy.id_of(int(dense[0])) == taxa.target_taxon[0]

    def test_shared_minimizer_collapses_to_lca(self, world):
        _, taxonomy, taxa, _ = world
        t = MinimizerLcaTable(taxonomy)
        # same genus, different species -> LCA is the genus
        t.add_reference(np.array([5], dtype=np.uint64), taxa.target_taxon[0])
        t.add_reference(np.array([5], dtype=np.uint64), taxa.target_taxon[1])
        t.finalize()
        dense = t.lookup_dense(np.array([5], dtype=np.uint64))
        assert taxonomy.id_of(int(dense[0])) == taxa.genus_taxon[0]

    def test_cross_genus_collapse(self, world):
        _, taxonomy, taxa, _ = world
        t = MinimizerLcaTable(taxonomy)
        t.add_reference(np.array([5], dtype=np.uint64), taxa.target_taxon[0])
        t.add_reference(np.array([5], dtype=np.uint64), taxa.target_taxon[2])
        t.finalize()
        dense = t.lookup_dense(np.array([5], dtype=np.uint64))
        # different genera share only the synthetic domain
        assert taxonomy.rank_of(taxonomy.id_of(int(dense[0]))) >= Rank.DOMAIN

    def test_many_way_collapse(self, world):
        _, taxonomy, taxa, _ = world
        t = MinimizerLcaTable(taxonomy)
        for i in range(4):
            t.add_reference(np.array([7], dtype=np.uint64), taxa.target_taxon[i])
        t.finalize()
        dense = t.lookup_dense(np.array([7], dtype=np.uint64))
        expected = taxa.target_taxon[0]
        from repro.taxonomy.lca import LcaIndex

        lca = LcaIndex(taxonomy)
        for i in range(1, 4):
            expected = lca.lca(expected, taxa.target_taxon[i])
        assert taxonomy.id_of(int(dense[0])) == expected

    def test_add_after_finalize_rejected(self, world):
        _, taxonomy, taxa, _ = world
        t = MinimizerLcaTable(taxonomy)
        t.finalize()
        with pytest.raises(RuntimeError):
            t.add_reference(np.array([1], dtype=np.uint64), taxa.target_taxon[0])

    def test_nbytes(self, world):
        _, taxonomy, taxa, _ = world
        t = MinimizerLcaTable(taxonomy)
        t.add_reference(np.arange(100, dtype=np.uint64), taxa.target_taxon[0])
        assert t.nbytes > 0


class TestKraken2Classifier:
    def test_classifies_own_reads(self, world):
        genomes, taxonomy, taxa, refs = world
        k2 = Kraken2Classifier(taxonomy, K2_PARAMS).build(refs)
        reads = ReadSimulator(genomes, seed=1).simulate(
            ReadProfile("exact", 80, 80, 80, error_rate=0.0), 100
        )
        cls = k2.classify(reads.sequences)
        assert cls.n_classified > 90
        true_sp = np.array([taxa.species_taxon[t] for t in reads.true_target])
        true_ge = np.array([taxa.genus_taxon[t] for t in reads.true_target])
        rep = evaluate_accuracy(taxonomy, cls, true_sp, true_ge)
        assert rep.genus.sensitivity > 0.8
        assert rep.genus.precision > 0.9

    def test_no_locations_reported(self, world):
        genomes, taxonomy, _, refs = world
        k2 = Kraken2Classifier(taxonomy, K2_PARAMS).build(refs)
        reads = ReadSimulator(genomes, seed=2).simulate(HISEQ, 20)
        cls = k2.classify(reads.sequences)
        assert (cls.best_target == -1).all()

    def test_foreign_reads_unclassified(self, world):
        _, taxonomy, _, refs = world
        k2 = Kraken2Classifier(taxonomy, K2_PARAMS).build(refs)
        foreign = GenomeSimulator(seed=404).simulate_collection(1, 1, 3000)
        reads = ReadSimulator(foreign, seed=3).simulate(HISEQ, 50)
        cls = k2.classify(reads.sequences)
        assert cls.n_classified < 10

    def test_paired_reads(self, world):
        genomes, taxonomy, _, refs = world
        from repro.genomics.reads import KAL_D

        k2 = Kraken2Classifier(taxonomy, K2_PARAMS).build(refs)
        reads = ReadSimulator(genomes, seed=4).simulate(KAL_D, 20)
        cls = k2.classify(reads.sequences, mates=reads.mates)
        assert cls.taxon.size == 20
        assert cls.n_classified > 15

    def test_confidence_reduces_classifications(self, world):
        genomes, taxonomy, _, refs = world
        reads = ReadSimulator(genomes, seed=5).simulate(HISEQ, 50)
        lax = Kraken2Classifier(taxonomy, K2_PARAMS).build(refs)
        strict_params = Kraken2Params(
            m=K2_PARAMS.m, window=K2_PARAMS.window, confidence=0.99
        )
        strict = Kraken2Classifier(taxonomy, strict_params).build(refs)
        n_lax = lax.classify(reads.sequences).n_classified
        n_strict = strict.classify(reads.sequences).n_classified
        assert n_strict <= n_lax


class TestMetaCacheCpu:
    def test_matches_single_partition_gpu(self, world):
        """Same params, 1 partition: CPU and GPU classify identically."""
        genomes, taxonomy, taxa, refs = world
        cpu = MetaCacheCpu(taxonomy, PARAMS).build(refs)
        gpu_db = Database.build(refs, taxonomy, params=PARAMS, n_partitions=1)
        reads = ReadSimulator(genomes, seed=6).simulate(HISEQ, 200)
        c_cpu = cpu.classify(reads.sequences)
        packed = PackedReads.from_reads(reads.sequences)
        c_gpu = classify_reads(gpu_db, query_database(gpu_db, packed).candidates)
        for f in dataclasses.fields(c_gpu):
            assert np.array_equal(getattr(c_cpu, f.name), getattr(c_gpu, f.name)), f.name

    def test_cap_loses_locations_vs_partitioned(self, world):
        """The 254-cap effect: partitioned DBs retain more locations."""
        genomes, taxonomy, taxa, refs = world
        tight = MetaCacheParams.small(max_locations_per_feature=2)
        cpu = MetaCacheCpu(taxonomy, tight).build(refs)
        gpu_db = Database.build(refs, taxonomy, params=tight, n_partitions=3)
        # GPU partitions each keep up to 2 locations per feature
        assert sum(p.condensed.pointers.n_locations for p in gpu_db.partitions) >= (
            cpu.table.stored
        )
        assert cpu.table.dropped > 0

    def test_unknown_taxon_rejected(self, world):
        _, taxonomy, _, _ = world
        cpu = MetaCacheCpu(taxonomy, PARAMS)
        with pytest.raises(KeyError):
            cpu.add_reference("x", np.zeros(100, dtype=np.uint8), 424242)

    def test_nbytes_grows(self, world):
        _, taxonomy, taxa, refs = world
        cpu = MetaCacheCpu(taxonomy, PARAMS)
        before = cpu.nbytes
        cpu.add_reference(*refs[0])
        assert cpu.nbytes > before
