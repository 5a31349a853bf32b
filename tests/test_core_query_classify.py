"""Integration tests: query pipeline + classification + accuracy/abundance."""

import numpy as np
import pytest

from repro.api import MetaCache
from repro.core.abundance import abundance_deviation, estimate_abundances
from repro.core.classify import UNCLASSIFIED, classify_reads
from repro.core.config import ClassificationParams, MetaCacheParams
from repro.core.database import Database
from repro.core.query import query_database
from repro.core.stats import evaluate_accuracy
from repro.genomics.community import CommunityMember, MockCommunity
from repro.genomics.reads import HISEQ, KAL_D, ReadProfile, ReadSimulator
from repro.genomics.simulate import GenomeSimulator
from repro.pipeline.packed import PackedReads
from repro.taxonomy.builder import build_taxonomy_for_genomes
from repro.taxonomy.ranks import Rank
from repro.taxonomy.tree import Taxonomy

from paper.gpu.multi_gpu import ring_query
from paper.gpu.topology import MultiGpuNode

PARAMS = MetaCacheParams.small()


@pytest.fixture(scope="module")
def world():
    genomes = GenomeSimulator(seed=21).simulate_collection(4, 2, 4000)
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    refs = [
        (g.name, g.scaffolds[0], taxa.target_taxon[i]) for i, g in enumerate(genomes)
    ]
    db = Database.build(refs, taxonomy, params=PARAMS, n_partitions=2)
    return genomes, taxonomy, taxa, db


class TestQueryPipeline:
    def test_exact_reads_classified_correctly(self, world):
        genomes, taxonomy, taxa, db = world
        reads = ReadSimulator(genomes, seed=1).simulate(
            ReadProfile("exact", 60, 60, 60, error_rate=0.0), 150
        )
        res = query_database(db, PackedReads.from_reads(reads.sequences))
        cls = classify_reads(db, res.candidates)
        assert cls.n_classified > 140
        true_sp = np.array([taxa.species_taxon[t] for t in reads.true_target])
        true_ge = np.array([taxa.genus_taxon[t] for t in reads.true_target])
        rep = evaluate_accuracy(taxonomy, cls, true_sp, true_ge)
        # reads resolved at species level are overwhelmingly right;
        # ambiguous reads fall back to genus LCA and stay correct there
        assert rep.species.precision > 0.95
        assert rep.genus.precision > 0.95
        assert rep.genus.sensitivity > 0.9

    def test_multi_partition_equals_single(self, world):
        genomes, taxonomy, taxa, db = world
        refs = [
            (g.name, g.scaffolds[0], taxa.target_taxon[i])
            for i, g in enumerate(genomes)
        ]
        db1 = Database.build(refs, taxonomy, params=PARAMS, n_partitions=1)
        reads = ReadSimulator(genomes, seed=2).simulate(HISEQ, 80)
        r1 = query_database(db1, PackedReads.from_reads(reads.sequences))
        r2 = query_database(db, PackedReads.from_reads(reads.sequences))
        c1 = classify_reads(db1, r1.candidates)
        c2 = classify_reads(db, r2.candidates)
        assert np.array_equal(c1.taxon, c2.taxon)

    def test_ring_merge_matches_sequential(self, world):
        genomes, _, _, db = world
        reads = ReadSimulator(genomes, seed=3).simulate(HISEQ, 60)
        node = MultiGpuNode.dgx1(db.n_partitions)
        r_ring, trace = ring_query(node, db, PackedReads.from_reads(reads.sequences))
        r_seq = query_database(db, PackedReads.from_reads(reads.sequences))
        assert np.array_equal(r_ring.candidates.score, r_seq.candidates.score)
        assert np.array_equal(r_ring.candidates.target, r_seq.candidates.target)
        assert r_ring.total_locations == r_seq.total_locations
        assert trace.merge_order == list(range(db.n_partitions))
        assert trace.total_transfer_seconds > 0
        with pytest.raises(ValueError, match="partition"):
            ring_query(MultiGpuNode.dgx1(db.n_partitions + 1), db, PackedReads.empty())

    def test_paired_end_classification(self, world):
        genomes, _, taxa, db = world
        reads = ReadSimulator(genomes, seed=4).simulate(KAL_D, 40)
        res = query_database(db, PackedReads.from_reads(reads.sequences, reads.mates))
        cls = classify_reads(db, res.candidates)
        assert res.n_reads == 40
        assert cls.n_classified > 35

    def test_paired_scores_higher_than_single(self, world):
        """Both mates contribute hits to the pair's candidate."""
        genomes, _, _, db = world
        reads = ReadSimulator(genomes, seed=5).simulate(KAL_D, 30)
        r_pair = query_database(
            db, PackedReads.from_reads(reads.sequences, reads.mates)
        )
        r_single = query_database(db, PackedReads.from_reads(reads.sequences))
        ok = r_pair.candidates.valid[:, 0] & r_single.candidates.valid[:, 0]
        assert (
            r_pair.candidates.score[ok, 0] >= r_single.candidates.score[ok, 0]
        ).all()
        assert (
            r_pair.candidates.score[ok, 0] > r_single.candidates.score[ok, 0]
        ).any()

    def test_short_reads_unclassified(self, world):
        _, _, _, db = world
        tiny = [np.zeros(3, dtype=np.uint8)]  # shorter than k
        res = query_database(db, PackedReads.from_reads(tiny))
        cls = classify_reads(db, res.candidates)
        assert cls.taxon[0] == UNCLASSIFIED

    def test_foreign_reads_mostly_unclassified(self, world):
        """Reads from genomes absent from the DB shouldn't classify."""
        _, _, _, db = world
        foreign = GenomeSimulator(seed=999).simulate_collection(1, 1, 3000)
        reads = ReadSimulator(foreign, seed=6).simulate(HISEQ, 60)
        res = query_database(db, PackedReads.from_reads(reads.sequences))
        cls = classify_reads(db, res.candidates)
        assert cls.n_classified < 10

    def test_stage_timers_populated(self, world):
        genomes, _, _, db = world
        reads = ReadSimulator(genomes, seed=7).simulate(HISEQ, 20)
        res = query_database(db, PackedReads.from_reads(reads.sequences))
        for stage in ("sketch", "query", "compact", "segmented_sort",
                      "window_count_top", "merge"):
            assert stage in res.stages.stages
        assert res.stages.total > 0

    def test_mates_length_mismatch_raises(self, world):
        with pytest.raises(ValueError, match="mates list must match"):
            PackedReads.from_reads([np.zeros(30, dtype=np.uint8)], [])


class TestClassificationRule:
    def test_per_target_taxa_are_built_once_per_database(self, world, monkeypatch):
        """A batch's classify step looks up no taxon: the target -> taxon
        vector belongs to the database.  (Rendering records still names
        each distinct taxon of the batch, so the spy wraps the rule.)"""
        genomes, _, _, db = world
        reads = ReadSimulator(genomes, seed=5).simulate(HISEQ, 8).sequences
        headers = [f"r{i}" for i in range(len(reads))]
        session = MetaCache(db).session()
        first = session.classify_batch(headers, PackedReads.from_reads(reads))
        calls = []
        real = Taxonomy.index_of
        monkeypatch.setattr(
            Taxonomy, "index_of", lambda self, t: calls.append(t) or real(self, t)
        )
        result = query_database(db, PackedReads.from_reads(reads))
        assert calls == []
        again = classify_reads(db, result.candidates)
        assert calls == []
        assert again.taxon.tolist() == first.columns[1]

    def test_min_hits_threshold(self, world):
        genomes, _, _, db = world
        reads = ReadSimulator(genomes, seed=8).simulate(HISEQ, 50)
        res = query_database(db, PackedReads.from_reads(reads.sequences))
        strict = ClassificationParams(min_hits=10**6)
        cls = classify_reads(db, res.candidates, strict)
        assert cls.n_classified == 0

    def test_lca_on_ambiguous_hits(self, world):
        """Reads hitting two same-genus species resolve to the genus."""
        genomes, taxonomy, taxa, db = world
        # genomes 0 and 1 share a genus; craft a read from their common
        # ancestor region by taking an exact slice of genome 0 that is
        # also (nearly) present in genome 1 -> ambiguous hits
        res = None
        lax = ClassificationParams(min_hits=1, lca_trigger_fraction=0.5)
        reads = ReadSimulator(genomes[:2], seed=9).simulate(
            ReadProfile("exact", 80, 80, 80, error_rate=0.0), 200
        )
        res = query_database(db, PackedReads.from_reads(reads.sequences))
        cls = classify_reads(db, res.candidates, lax)
        # at least some reads must have been resolved via LCA to a
        # non-sequence rank (species or genus internal node)
        ranks = [
            db.lineages.rank_resolved(int(t))
            for t in cls.taxon[cls.classified_mask]
        ]
        assert any(r >= Rank.GENUS for r in ranks)

    def test_unambiguous_reads_get_sequence_taxon(self, world):
        genomes, _, taxa, db = world
        reads = ReadSimulator(genomes, seed=10).simulate(
            ReadProfile("exact", 80, 80, 80, error_rate=0.0), 50
        )
        cls = classify_reads(
            db, query_database(db, PackedReads.from_reads(reads.sequences)).candidates
        )
        seq_level = sum(
            db.lineages.rank_resolved(int(t)) == Rank.SEQUENCE
            for t in cls.taxon[cls.classified_mask]
        )
        assert seq_level > 0.6 * cls.n_classified


class TestAccuracyEvaluation:
    def test_perfect_prediction_scores_one(self, world):
        genomes, taxonomy, taxa, db = world
        reads = ReadSimulator(genomes, seed=11).simulate(HISEQ, 30)
        true_sp = np.array([taxa.species_taxon[t] for t in reads.true_target])
        true_ge = np.array([taxa.genus_taxon[t] for t in reads.true_target])
        from repro.core.classify import Classification

        perfect = Classification(
            taxon=true_sp.copy(),
            best_target=reads.true_target.copy(),
            best_window_first=np.zeros(30, dtype=np.int64),
            best_window_last=np.zeros(30, dtype=np.int64),
            top_score=np.ones(30, dtype=np.int64),
        )
        rep = evaluate_accuracy(taxonomy, perfect, true_sp, true_ge)
        assert rep.species.precision == 1.0 and rep.species.sensitivity == 1.0
        assert rep.genus.precision == 1.0 and rep.genus.sensitivity == 1.0

    def test_genus_only_prediction(self, world):
        """Genus-level LCA counts for genus but not species."""
        genomes, taxonomy, taxa, db = world
        true_sp = np.array([taxa.species_taxon[0]])
        true_ge = np.array([taxa.genus_taxon[0]])
        from repro.core.classify import Classification

        pred = Classification(
            taxon=np.array([taxa.genus_taxon[0]]),
            best_target=np.array([0]),
            best_window_first=np.zeros(1, dtype=np.int64),
            best_window_last=np.zeros(1, dtype=np.int64),
            top_score=np.ones(1, dtype=np.int64),
        )
        rep = evaluate_accuracy(taxonomy, pred, true_sp, true_ge)
        assert rep.species.n_classified_at_rank == 0
        assert np.isnan(rep.species.precision)
        assert rep.species.sensitivity == 0.0
        assert rep.genus.precision == 1.0 and rep.genus.sensitivity == 1.0

    def test_mismatched_lengths_raise(self, world):
        _, taxonomy, _, _ = world
        from repro.core.classify import Classification

        pred = Classification(
            taxon=np.array([1]),
            best_target=np.array([0]),
            best_window_first=np.zeros(1, dtype=np.int64),
            best_window_last=np.zeros(1, dtype=np.int64),
            top_score=np.ones(1, dtype=np.int64),
        )
        with pytest.raises(ValueError):
            evaluate_accuracy(taxonomy, pred, np.array([1, 2]), np.array([1, 2]))


class TestAbundance:
    def test_mixture_recovered(self, world):
        genomes, taxonomy, taxa, db = world
        com = MockCommunity(
            genomes,
            members=[CommunityMember(0, 0.7), CommunityMember(2, 0.3)],
            seed=3,
            strain_divergence=0.0,
        )
        reads = com.simulate_reads(HISEQ, 600)
        res = query_database(db, PackedReads.from_reads(reads.sequences))
        cls = classify_reads(db, res.candidates)
        est = estimate_abundances(taxonomy, cls, Rank.SPECIES)
        truth = {
            taxa.species_taxon[0]: 0.7,
            taxa.species_taxon[2]: 0.3,
        }
        dev, fp = abundance_deviation(est, truth)
        assert dev < 0.15
        assert fp < 0.1

    def test_empty_classification(self, world):
        _, taxonomy, _, _ = world
        from repro.core.classify import Classification

        empty = Classification(
            taxon=np.zeros(5, dtype=np.int64),
            best_target=np.full(5, -1),
            best_window_first=np.zeros(5, dtype=np.int64),
            best_window_last=np.zeros(5, dtype=np.int64),
            top_score=np.zeros(5, dtype=np.int64),
        )
        assert estimate_abundances(taxonomy, empty) == {}

    def test_deviation_metric(self):
        est = {1: 0.5, 2: 0.3, 99: 0.2}
        truth = {1: 0.6, 2: 0.4}
        dev, fp = abundance_deviation(est, truth)
        assert abs(dev - 0.2) < 1e-9
        assert abs(fp - 0.2) < 1e-9
