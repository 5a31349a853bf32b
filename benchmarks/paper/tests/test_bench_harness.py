"""Tests for the benchmark harness: workload registry and runners.

Uses shrunken workload parameters so the harness logic is exercised
without the full bench cost.
"""

import numpy as np
import pytest

from paper.bench.runners import (
    build_gpu_database,
    kraken2_params,
    paper_params,
    run_accuracy_comparison,
    run_build_comparison,
    run_ttq_comparison,
)
from paper.bench.workloads import (
    PAPER_AFS,
    PAPER_REFSEQ,
    ReadDataset,
    afs_plus_mini,
    hiseq_mini,
    kald_mini,
    refseq_mini,
)


@pytest.fixture(scope="module")
def tiny_refset():
    return refseq_mini(4, 2, 8_000)


class TestWorkloads:
    def test_refset_structure(self, tiny_refset):
        rs = tiny_refset
        assert rs.n_species == 8
        assert rs.n_targets == 8
        assert rs.total_bases > 0
        assert len(rs.references) == 8
        assert rs.paper is PAPER_REFSEQ

    def test_refset_cached(self):
        assert refseq_mini(4, 2, 8_000) is refseq_mini(4, 2, 8_000)

    def test_afs_adds_scaffolded_targets(self):
        ap = afs_plus_mini(2, 60_000)
        rs = refseq_mini()
        assert ap.n_targets == rs.n_targets + 2 * 40
        # scaffold references share the genome taxon
        food_refs = [r for r in ap.references if "AFS" in r[0]]
        assert len(food_refs) == 80

    def test_dataset_truth_vectors(self):
        ds = hiseq_mini(200)
        assert isinstance(ds, ReadDataset)
        assert ds.true_species.size == 200
        assert ds.true_genus.size == 200
        # truth taxa exist in the taxonomy
        for t in np.unique(ds.true_species):
            assert int(t) in ds.refset.taxonomy

    def test_paper_shapes_cover_both_dbs(self):
        for ds in (hiseq_mini(50), kald_mini(50)):
            assert PAPER_REFSEQ.name in ds.paper_shapes
            assert PAPER_AFS.name in ds.paper_shapes

    def test_kald_is_paired_meat_mixture(self):
        ds = kald_mini(100)
        assert ds.reads.paired
        food = {i for i, g in enumerate(ds.refset.genomes) if g.name.startswith("AFS")}
        assert set(np.unique(ds.reads.true_target).tolist()) <= food


class TestRunnerHelpers:
    def test_paper_params_defaults(self):
        p = paper_params()
        assert p.sketch.k == 16 and p.sketch.sketch_size == 16
        assert p.max_locations_per_feature == 254
        assert paper_params(cap=7).max_locations_per_feature == 7

    def test_kraken2_params_l35(self):
        kp = kraken2_params()
        assert kp.m + kp.window - 1 == 35  # the real tool's l-mer span

    def test_build_gpu_database(self, tiny_refset):
        db = build_gpu_database(tiny_refset, 2)
        assert db.n_partitions == 2
        assert db.n_targets == 8


class TestRunners:
    def test_build_comparison_rows(self, tiny_refset):
        rows = run_build_comparison(tiny_refset, partition_counts=(1,))
        methods = [r.method for r in rows]
        assert methods == ["Kraken2*", "MC CPU", "MC 1 GPUs"]
        for r in rows:
            assert r.build_seconds > 0
            assert r.total_seconds >= r.build_seconds
            assert r.db_bytes > 0

    def test_ttq_rows(self, tiny_refset):
        rows = run_ttq_comparison(tiny_refset, partition_counts=(1,))
        by = {r.method: r for r in rows}
        assert by["MC 1 GPUs OTF"].load_seconds == 0.0
        assert by["Kraken2*"].ttq_seconds >= by["Kraken2*"].build_seconds

    def test_accuracy_rows_complete(self, tiny_refset):
        ds = hiseq_mini(150)
        # rebuild the dataset against the tiny refset for speed
        from repro.genomics.community import MockCommunity
        from repro.genomics.reads import HISEQ

        com = MockCommunity.uniform(
            tiny_refset.genomes, [0, 2, 4], seed=5, strain_divergence=0.02
        )
        tiny_ds = ReadDataset(
            name="HiSeq", reads=com.simulate_reads(HISEQ, 150), refset=tiny_refset
        )
        rows = run_accuracy_comparison(
            tiny_refset, [tiny_ds], partition_counts=(2,)
        )
        assert {r.method for r in rows} == {"Kraken2*", "MC CPU", "MC 2 GPUs"}
        for r in rows:
            assert 0.0 <= r.report.genus.sensitivity <= 1.0
