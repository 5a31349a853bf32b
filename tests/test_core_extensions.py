"""Tests for the extension features: read mapping and partition-run
merging."""

import numpy as np
import pytest

from repro.core import (
    Database,
    MetaCacheParams,
    classify_reads,
    load_candidates,
    map_reads,
    merge_partition_runs,
    query_database,
    save_candidates,
)
from repro.core.mapping import refine_mapping
from repro.genomics.reads import HISEQ, ReadProfile, ReadSimulator
from repro.genomics.simulate import GenomeSimulator
from repro.taxonomy.builder import build_taxonomy_for_genomes

PARAMS = MetaCacheParams.small()


@pytest.fixture(scope="module")
def world():
    genomes = GenomeSimulator(seed=51).simulate_collection(3, 2, 5000)
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    refs = [
        (g.name, g.scaffolds[0], taxa.target_taxon[i]) for i, g in enumerate(genomes)
    ]
    db = Database.build(refs, taxonomy, params=PARAMS, n_partitions=2)
    return genomes, taxonomy, taxa, db


class TestReadMapping:
    def test_exact_reads_map_to_origin(self, world):
        """The mapped region must contain the read's true position."""
        genomes, _, _, db = world
        profile = ReadProfile("exact", 60, 60, 60, error_rate=0.0)
        rng = np.random.default_rng(0)
        # construct reads with known positions
        reads, true_pos, true_target = [], [], []
        for _ in range(50):
            t = int(rng.integers(0, len(genomes)))
            g = genomes[t].scaffolds[0]
            pos = int(rng.integers(0, g.size - 60))
            reads.append(g[pos : pos + 60].copy())
            true_pos.append(pos)
            true_target.append(t)
        mapping = map_reads(db, reads, min_hits=2)
        assert mapping.n_mapped > 40
        correct_region = 0
        for i in range(50):
            if mapping.target[i] < 0:
                continue
            if mapping.target[i] == true_target[i]:
                if (
                    mapping.ref_begin[i] <= true_pos[i] + 60
                    and true_pos[i] <= mapping.ref_end[i]
                ):
                    correct_region += 1
        assert correct_region / mapping.n_mapped > 0.9

    def test_region_within_target_bounds(self, world):
        genomes, _, _, db = world
        reads = ReadSimulator(genomes, seed=1).simulate(HISEQ, 60)
        mapping = map_reads(db, reads.sequences)
        lengths = np.array([t.length for t in db.targets])
        for i in np.flatnonzero(mapping.mapped_mask):
            assert 0 <= mapping.ref_begin[i] < mapping.ref_end[i]
            assert mapping.ref_end[i] <= lengths[mapping.target[i]]

    def test_unmappable_reads(self, world):
        _, _, _, db = world
        mapping = map_reads(db, [np.zeros(3, dtype=np.uint8)])
        assert mapping.n_mapped == 0
        assert mapping.target[0] == -1

    def test_refine_mapping_finds_offset(self, world):
        genomes, _, _, db = world
        g = genomes[0].scaffolds[0]
        read = g[500:580].copy()
        offset, identity = refine_mapping(g, read, 400, 700, k=8)
        assert offset == 100  # 500 - 400
        assert identity > 0.9

    def test_refine_mapping_no_match(self, world):
        genomes, _, _, db = world
        g = genomes[0].scaffolds[0]
        rng = np.random.default_rng(9)
        foreign = rng.integers(0, 4, 80).astype(np.uint8)
        _, identity = refine_mapping(g, foreign, 0, 500, k=16)
        assert identity < 0.2


class TestMergePartitionRuns:
    def test_merge_equals_full_query(self, world, tmp_path):
        """Independent per-partition runs + merge == joint query."""
        genomes, taxonomy, taxa, db = world
        reads = ReadSimulator(genomes, seed=2).simulate(HISEQ, 50)
        joint = query_database(db, reads.sequences)

        # simulate the low-memory workflow: query each partition alone
        paths = []
        for pid, part in enumerate(db.partitions):
            solo = Database(
                params=db.params,
                taxonomy=taxonomy,
                partitions=[part],
                targets=db.targets,
            )
            res = query_database(solo, reads.sequences)
            path = tmp_path / f"run{pid}.npz"
            save_candidates(res.candidates, path)
            paths.append(path)

        merged = merge_partition_runs(paths)
        assert np.array_equal(
            np.sort(merged.score, axis=1), np.sort(joint.candidates.score, axis=1)
        )
        c_joint = classify_reads(db, joint.candidates)
        c_merged = classify_reads(db, merged)
        assert np.array_equal(c_joint.taxon, c_merged.taxon)

    def test_roundtrip_serialization(self, world, tmp_path):
        genomes, _, _, db = world
        reads = ReadSimulator(genomes, seed=3).simulate(HISEQ, 10)
        res = query_database(db, reads.sequences)
        path = tmp_path / "c.npz"
        save_candidates(res.candidates, path)
        back = load_candidates(path)
        assert np.array_equal(back.target, res.candidates.target)
        assert np.array_equal(back.valid, res.candidates.valid)

    def test_mismatched_read_counts_rejected(self, world, tmp_path):
        genomes, _, _, db = world
        r1 = query_database(
            db, ReadSimulator(genomes, seed=4).simulate(HISEQ, 5).sequences
        )
        r2 = query_database(
            db, ReadSimulator(genomes, seed=4).simulate(HISEQ, 6).sequences
        )
        with pytest.raises(ValueError):
            merge_partition_runs([r1.candidates, r2.candidates])

    def test_empty_runs_rejected(self):
        with pytest.raises(ValueError):
            merge_partition_runs([])

    def test_top_m_truncation(self, world):
        genomes, _, _, db = world
        reads = ReadSimulator(genomes, seed=5).simulate(HISEQ, 10)
        res = query_database(db, reads.sequences)
        merged = merge_partition_runs([res.candidates, res.candidates], m=2)
        assert merged.m == 2
