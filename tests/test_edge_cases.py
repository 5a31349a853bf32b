"""Degenerate-input edge cases across every layer.

Zero reads, zero-length reads, and empty files through the core
query pipeline, the API session, and the CLI (the server's legs live
in ``test_server.py``).  These all worked when the serving PR audited
them -- the tests pin that so a refactor cannot quietly turn an
empty input into a crash at any layer.
"""

import io

import numpy as np
import pytest

from repro.api import MetaCache, MetaCacheParams, TsvSink
from repro.cli import main
from repro.core.classify import classify_reads
from repro.core.query import query_database
from repro.genomics.alphabet import encode_sequence
from repro.genomics.simulate import GenomeSimulator
from repro.pipeline.packed import PackedReads
from repro.taxonomy.builder import build_taxonomy_for_genomes

PARAMS = MetaCacheParams.small()
TSV_HEADER = "read\ttaxon_id\ttaxon_name\trank\tscore\ttarget\twindow_range\n"


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("edge")
    genomes = GenomeSimulator(seed=3).simulate_collection(2, 1, 3000)
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    references = [
        (g.name, g.scaffolds[0], taxa.target_taxon[i])
        for i, g in enumerate(genomes)
    ]
    mc = MetaCache.ephemeral(references, taxonomy, params=PARAMS)
    db_dir = root / "db"
    mc.save(db_dir)
    empty = root / "empty.fastq"
    empty.write_text("")
    yield mc, db_dir, empty
    mc.close()


class TestCore:
    def test_query_database_zero_reads(self, world):
        mc, _, _ = world
        result = query_database(mc.database, PackedReads.from_reads([]))
        assert result.n_reads == 0
        assert result.read_lengths.shape == (0,)
        assert result.candidates.target.shape[0] == 0
        cls = classify_reads(
            mc.database, result.candidates, PARAMS.classification
        )
        assert cls.n_classified == 0
        assert cls.taxon.shape == (0,)

    def test_query_database_zero_length_read(self, world):
        mc, _, _ = world
        result = query_database(
            mc.database, PackedReads.from_reads([encode_sequence("")])
        )
        assert result.n_reads == 1
        cls = classify_reads(
            mc.database, result.candidates, PARAMS.classification
        )
        assert int(cls.taxon[0]) == 0  # unclassified, not a crash

    def test_query_database_zero_length_among_real_reads(self, world):
        mc, _, _ = world
        real = encode_sequence("ACGT" * 30)
        mixed = query_database(
            mc.database, PackedReads.from_reads([real, encode_sequence(""), real])
        )
        assert mixed.n_reads == 3
        alone = query_database(mc.database, PackedReads.from_reads([real]))
        # the empty read must not perturb its neighbours' candidates
        assert np.array_equal(
            mixed.candidates.score[0], alone.candidates.score[0]
        )
        assert np.array_equal(
            mixed.candidates.score[2], alone.candidates.score[0]
        )


class TestApi:
    def test_classify_empty_batch(self, world):
        mc, _, _ = world
        session = mc.session()
        run = session.classify([])
        assert len(run.records) == 0
        assert run.report.n_reads == 0

    def test_classify_batch_empty(self, world):
        mc, _, _ = world
        assert mc.session().classify_batch([], PackedReads.empty()) == []

    def test_classify_iter_empty_iterable(self, world):
        mc, _, _ = world
        assert list(mc.session().classify_iter([])) == []

    def test_classify_files_empty_file(self, world):
        mc, _, empty = world
        buffer = io.StringIO()
        session = mc.session()
        with TsvSink(buffer) as sink:
            report = session.classify_files(empty, sink=sink)
        assert report.n_reads == 0
        assert buffer.getvalue() == TSV_HEADER  # header row only

    def test_zero_length_read_classifies_unclassified(self, world):
        mc, _, _ = world
        run = mc.session().classify([("empty", "")])
        assert run.records[0].taxon_id == 0
        assert run.records[0].taxon_name == "unclassified"


class TestCli:
    def test_query_empty_reads_file(self, world, tmp_path, capsys):
        _, db_dir, empty = world
        out = tmp_path / "out.tsv"
        assert (
            main(
                ["query", "--db", str(db_dir), "--reads", str(empty),
                 "--out", str(out)]
            )
            == 0
        )
        assert out.read_text() == TSV_HEADER
        assert "classified 0/0 reads" in capsys.readouterr().err

    def test_query_empty_reads_file_with_abundance(self, world, tmp_path):
        _, db_dir, empty = world
        out = tmp_path / "out.tsv"
        assert (
            main(
                ["query", "--db", str(db_dir), "--reads", str(empty),
                 "--out", str(out), "--abundance", "species"]
            )
            == 0
        )
