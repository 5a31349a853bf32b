"""Tests of the public :mod:`repro.api` surface.

Covers the facade constructors, warm session reuse, the streaming
paths (``classify_iter`` / ``classify_files``) including their
byte-identical equivalence with one-shot classification and the
bounded-memory guarantee, every built-in sink format's round trip,
and the typed error hierarchy.
"""

import gzip
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    ClassificationParams,
    CollectSink,
    ConfigError,
    DatabaseFormatError,
    InvalidMappingError,
    InvalidReadError,
    JsonlSink,
    KrakenSink,
    MetaCache,
    MetaCacheError,
    MetaCacheParams,
    QuerySession,
    ReadClassification,
    TsvSink,
    UnknownFormatError,
    estimate_abundances,
    estimate_abundances_from_counts,
    iter_batches,
    load_accession_mapping,
    open_sink,
    read_jsonl,
    read_kraken,
    read_sequences,
    read_tsv,
)
from repro.cli import main as cli_main
from repro.genomics.alphabet import decode_sequence
from repro.genomics.fasta import write_fasta
from repro.genomics.fastq import FastqRecord, write_fastq
from repro.genomics.reads import HISEQ, ReadSimulator
from repro.genomics.simulate import GenomeSimulator
from repro.taxonomy.builder import build_taxonomy_for_genomes
from repro.taxonomy.ranks import Rank

from reference.index_v1 import save_database_v1

PARAMS = MetaCacheParams.small()


@pytest.fixture(scope="module")
def world():
    genomes = GenomeSimulator(seed=17).simulate_collection(3, 2, 5000)
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    references = [
        (g.name, g.scaffolds[0], taxa.target_taxon[i])
        for i, g in enumerate(genomes)
    ]
    mc = MetaCache.ephemeral(references, taxonomy, params=PARAMS)
    reads = ReadSimulator(genomes, seed=29).simulate(HISEQ, 60)
    named = [(f"r{i}", s) for i, s in enumerate(reads.sequences)]
    return genomes, taxonomy, taxa, mc, named


@pytest.fixture(scope="module")
def run(world):
    _, _, _, mc, named = world
    return mc.session().classify(named)


# ---------------------------------------------------------------- facade


class TestFacade:
    def test_ephemeral_accepts_strings(self, world):
        genomes, taxonomy, taxa, mc, _ = world
        as_str = [
            (g.name, decode_sequence(g.scaffolds[0]), taxa.target_taxon[i])
            for i, g in enumerate(genomes)
        ]
        mc2 = MetaCache.ephemeral(as_str, taxonomy, params=PARAMS)
        assert mc2.n_targets == mc.n_targets
        assert mc2.time_to_query > 0

    def test_save_open_roundtrip(self, world, tmp_path):
        _, _, _, mc, named = world
        files = mc.save(tmp_path / "db")
        assert len(files) >= 4
        reopened = MetaCache.open(tmp_path / "db")
        a = mc.classify(named)
        b = reopened.classify(named)
        assert np.array_equal(a.classification.taxon, b.classification.taxon)

    def test_build_from_files(self, world, tmp_path):
        genomes, taxonomy, taxa, _, named = world
        from repro.taxonomy.ncbi import write_ncbi_dump

        refs = tmp_path / "refs.fasta"
        write_fasta(
            [rec for g in genomes for rec in g.to_fasta_records()], refs
        )
        write_ncbi_dump(taxonomy, tmp_path / "nodes.dmp", tmp_path / "names.dmp")
        mapping = {g.accession: taxa.target_taxon[i] for i, g in enumerate(genomes)}
        mc = MetaCache.build(
            [refs], taxonomy=tmp_path, mapping=mapping, params=PARAMS
        )
        assert mc.n_targets == len(genomes)
        run = mc.classify(named)
        assert run.n_classified > 0

    def test_info(self, world):
        _, _, _, mc, _ = world
        info = mc.info()
        assert info.n_targets == mc.n_targets
        assert info.k == PARAMS.sketch.k
        assert info.index_bytes > 0

    def test_context_manager(self, world):
        genomes, taxonomy, taxa, _, _ = world
        references = [
            (g.name, g.scaffolds[0], taxa.target_taxon[i])
            for i, g in enumerate(genomes)
        ]
        with MetaCache.ephemeral(references, taxonomy, params=PARAMS) as mc:
            assert "targets" in repr(mc)

    @pytest.mark.parametrize(
        "surface",
        [
            "MetaCache",
            "open",
            "build",
            "ephemeral",
            "serve",
            "classify_files",
            "cli serve",
            "sharded session",
        ],
    )
    def test_workers_is_only_a_session_setting(self, world, tmp_path, surface):
        """``session(workers=)`` is the one way to ask for a pool."""
        genomes, taxonomy, taxa, mc, _ = world
        db_dir = tmp_path / "db"
        if surface == "sharded session":
            references = [
                (g.name, g.scaffolds[0], taxa.target_taxon[i])
                for i, g in enumerate(genomes)
            ]
            with MetaCache.ephemeral(
                references, taxonomy, params=PARAMS, n_partitions=2
            ) as two:
                two.save(db_dir)
            with MetaCache.open(db_dir, shards=2) as sharded:
                with pytest.raises(ConfigError, match="shard router"):
                    sharded.session(workers=2)
            return
        mc.save(db_dir)
        if surface == "cli serve":
            with pytest.raises(SystemExit) as exit_info:
                cli_main(["serve", "--db", str(db_dir), "--workers", "2"])
            assert exit_info.value.code == 2
            return
        calls = {
            "MetaCache": lambda: MetaCache(mc.database, workers=2),
            "open": lambda: MetaCache.open(db_dir, workers=2),
            "build": lambda: MetaCache.build([], taxonomy, {}, workers=2),
            "ephemeral": lambda: MetaCache.ephemeral([], taxonomy, workers=2),
            "serve": lambda: mc.serve(port=0, block=False, workers=2),
            "classify_files": lambda: mc.session().classify_files(
                tmp_path / "reads.fastq", workers=2
            ),
        }
        with pytest.raises(TypeError, match="workers"):
            calls[surface]()

    def test_mapping_file_parsing(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("# comment\nACC_1\t7\n\nACC_2\t9\n")
        assert load_accession_mapping(path) == {"ACC_1": 7, "ACC_2": 9}
        path.write_text("ACC_1 only-one-column\n")
        with pytest.raises(InvalidMappingError):
            load_accession_mapping(path)
        path.write_text("ACC_1\tnot-a-number\n")
        with pytest.raises(InvalidMappingError):
            load_accession_mapping(path)


# --------------------------------------------------------------- sessions


class TestSessionReuse:
    def test_multiple_classify_calls_accumulate(self, world):
        _, _, _, mc, named = world
        session = mc.session()
        r1 = session.classify(named[:20])
        r2 = session.classify(named[20:45])
        r3 = session.classify(named[45:])
        assert session.n_queries == 3
        assert session.report.n_reads == 60
        assert session.report.n_classified == (
            r1.n_classified + r2.n_classified + r3.n_classified
        )
        assert "3 queries" in session.summary()

    def test_same_reads_same_result_across_calls(self, world):
        _, _, _, mc, named = world
        session = mc.session()
        a = session.classify(named)
        b = session.classify(named)
        assert np.array_equal(a.classification.taxon, b.classification.taxon)
        assert [r.taxon_id for r in a] == [r.taxon_id for r in b]

    def test_per_call_param_override_does_not_stick(self, world):
        _, _, _, mc, named = world
        session = mc.session()
        strict = session.classify(
            named, params=session.params.replace(min_hits=10**6)
        )
        assert strict.n_classified == 0
        lax = session.classify(named)
        assert lax.n_classified > 0
        assert mc.params.classification.min_hits == PARAMS.classification.min_hits

    def test_empty_batch(self, world):
        _, _, _, mc, _ = world
        run = mc.session().classify([])
        assert len(run) == 0
        assert run.report.n_reads == 0

    def test_read_shapes(self, world):
        _, _, _, mc, named = world
        session = mc.session()
        header, codes = named[0]
        as_str = decode_sequence(codes)
        runs = [
            session.classify([codes]),          # bare ndarray
            session.classify([as_str]),         # plain string
            session.classify([(header, codes)]),  # (header, ndarray)
            session.classify([(header, as_str)]),  # (header, str)
        ]
        taxa = {int(r.classification.taxon[0]) for r in runs}
        assert len(taxa) == 1

    def test_records_match_arrays(self, run, world):
        _, _, _, mc, _ = world
        for i, rec in enumerate(run):
            assert rec.taxon_id == int(run.classification.taxon[i])
            if rec.classified:
                assert rec.taxon_name == mc.taxonomy.name_of(rec.taxon_id)
                assert rec.score == int(run.classification.top_score[i])

    def test_session_map(self, world):
        _, _, _, mc, named = world
        mapping = mc.session().map(named)
        assert mapping.target.size == len(named)


# -------------------------------------------------------------- streaming


def _tsv_of(records) -> str:
    buf = io.StringIO()
    with TsvSink(buf) as sink:
        sink.write_all(records)
    return buf.getvalue()


class TestStreaming:
    def test_classify_iter_equivalent_to_one_shot(self, world, run):
        _, _, _, mc, named = world
        session = mc.session()
        one_shot_tsv = _tsv_of(run.records)
        for batch_size in (1, 7, 60, 1000):
            streamed = []
            for part in session.classify_iter(iter_batches(iter(named), batch_size)):
                streamed.extend(part.records)
            assert _tsv_of(streamed) == one_shot_tsv, f"batch_size={batch_size}"
        # a batch that is itself a 2-tuple of reads is a batch of two
        # reads, not a (reads, mates) pair
        as_tuples = (tuple(batch) for batch in iter_batches(iter(named), 2))
        streamed = [r for part in session.classify_iter(as_tuples) for r in part]
        assert _tsv_of(streamed) == one_shot_tsv
        (run_ab,) = session.classify_iter([(named[0][1], named[1][1])])
        assert [r.taxon_id for r in run_ab] == [r.taxon_id for r in run.records[:2]]

    def test_peak_resident_reads_bounded_by_batch_size(self, world):
        _, _, _, mc, named = world
        session = mc.session()
        batch_size = 8
        resident = {"now": 0, "peak": 0}

        def metered_reads():
            for header, codes in named:
                resident["now"] += 1
                resident["peak"] = max(resident["peak"], resident["now"])
                yield header, codes

        def consume_and_release(batches):
            for part in batches:
                yield part
                resident["now"] -= len(part)

        total = 0
        batches = consume_and_release(iter_batches(metered_reads(), batch_size))
        for part in session.classify_iter(batches):
            total += len(part.records)
        assert total == len(named)
        # the streaming path never materializes more than one batch of reads
        assert resident["peak"] <= batch_size
        assert session.report.max_batch_reads <= batch_size

    def test_classify_iter_is_lazy(self, world):
        _, _, _, mc, named = world
        session = mc.session()
        pulled = []

        def source():
            for i, batch in enumerate(iter_batches(iter(named), 10)):
                pulled.append(i)
                yield batch

        gen = session.classify_iter(source())
        assert pulled == []  # nothing consumed before iteration starts
        next(gen)
        assert len(pulled) == 1  # one batch in, one result out
        gen.close()

    def test_classify_iter_paired_batches(self, world):
        genomes, _, _, mc, _ = world
        reads = ReadSimulator(genomes, seed=31).simulate(HISEQ, 20)
        session = mc.session()
        mates = [s[::-1].copy() for s in reads.sequences]
        one_shot = session.classify(reads.sequences, mates)
        streamed = []
        paired = zip(
            iter_batches(iter(reads.sequences), 6), iter_batches(iter(mates), 6)
        )
        for part in session.classify_iter(paired):
            streamed.extend(r.taxon_id for r in part)
        assert streamed == [r.taxon_id for r in one_shot]

    def test_classify_files_matches_in_memory(self, world, tmp_path):
        _, _, _, mc, named = world
        path = tmp_path / "sample.fastq"
        write_fastq(
            [
                FastqRecord(h, decode_sequence(s), "I" * s.size)
                for h, s in named
            ],
            path,
        )
        session = mc.session()
        one_shot_tsv = _tsv_of(session.classify(named).records)

        out = tmp_path / "out.tsv"
        with TsvSink(out) as sink:
            report = session.classify_files(path, sink=sink, batch_size=9)
        assert report.n_reads == len(named)
        assert report.n_batches == 7  # ceil(60 / 9)
        assert report.max_batch_reads <= 9
        # TsvSink writes its header line; one-shot buffer did too
        assert out.read_text() == one_shot_tsv

    def test_classify_files_gzip(self, world, tmp_path):
        _, _, _, mc, named = world
        plain = tmp_path / "sample.fasta"
        write_fasta([(h, decode_sequence(s)) for h, s in named], plain)
        zipped = tmp_path / "sample.fasta.gz"
        zipped.write_bytes(gzip.compress(plain.read_bytes()))
        session = mc.session()
        a, b = CollectSink(), CollectSink()
        session.classify_files(plain, sink=a, batch_size=16)
        session.classify_files(zipped, sink=b, batch_size=16)
        assert [r.taxon_id for r in a.records] == [r.taxon_id for r in b.records]

    def test_classify_files_paired(self, world, tmp_path):
        genomes, _, _, mc, _ = world
        reads = ReadSimulator(genomes, seed=37).simulate(HISEQ, 15)
        r1 = tmp_path / "r1.fasta"
        r2 = tmp_path / "r2.fasta"
        write_fasta(
            [(f"p{i}", decode_sequence(s)) for i, s in enumerate(reads.sequences)], r1
        )
        write_fasta(
            [(f"p{i}", decode_sequence(s)) for i, s in enumerate(reads.sequences)], r2
        )
        sink = CollectSink()
        report = mc.session().classify_files(r1, r2, sink=sink, batch_size=4)
        assert report.n_reads == 15
        assert len(sink.records) == 15

    def test_sink_failure_mid_stream_propagates(self, world, tmp_path):
        """A dying sink must not deadlock the producer/consumer pair.

        The read file is much larger than the queue can hold
        ((queue_depth+1) * batch_size), so the producer is guaranteed
        to be blocked on a full queue when the sink raises -- the
        exception must still propagate promptly.
        """
        _, _, _, mc, named = world
        path = tmp_path / "big.fasta"
        with open(path, "w") as fh:
            for rep in range(40):
                for h, s in named:
                    fh.write(f">{h}.{rep}\n{decode_sequence(s)}\n")

        class FailingSink(CollectSink):
            def write(self, record):
                if len(self.records) >= 3:
                    raise RuntimeError("sink exploded")
                super().write(record)

        # single-end and paired: both travel through the producer
        # thread and its cancel path
        for mates_path in (None, path):
            with pytest.raises(RuntimeError, match="sink exploded"):
                mc.session().classify_files(
                    path,
                    mates_path,
                    sink=FailingSink(),
                    batch_size=8,
                    queue_depth=2,
                )

    def test_paired_length_mismatch(self, world, tmp_path):
        _, _, _, mc, named = world
        r1 = tmp_path / "r1.fasta"
        r2 = tmp_path / "r2.fasta"
        write_fasta([(h, decode_sequence(s)) for h, s in named[:5]], r1)
        write_fasta([(h, decode_sequence(s)) for h, s in named[:3]], r2)
        with pytest.raises(InvalidReadError):
            mc.session().classify_files(r1, r2, sink=CollectSink())

    def test_abundance_from_streamed_counts(self, world):
        _, _, _, mc, named = world
        session = mc.session()
        run = session.classify(named)
        direct = estimate_abundances(mc.taxonomy, run.classification, Rank.SPECIES)
        streamed = estimate_abundances_from_counts(
            mc.taxonomy, run.report.taxon_counts, Rank.SPECIES
        )
        assert direct.keys() == streamed.keys()
        for taxon in direct:
            assert direct[taxon] == pytest.approx(streamed[taxon])


# ------------------------------------------------------------------ sinks


class TestSinks:
    def test_tsv_roundtrip(self, run, tmp_path):
        path = tmp_path / "out.tsv"
        with TsvSink(path) as sink:
            sink.write_all(run.records)
        back = read_tsv(path)
        assert len(back) == len(run.records)
        for orig, rec in zip(run.records, back):
            assert (rec.header, rec.taxon_id, rec.taxon_name, rec.rank,
                    rec.score, rec.target, rec.window_first, rec.window_last) == (
                orig.header, orig.taxon_id, orig.taxon_name, orig.rank,
                orig.score, orig.target, orig.window_first, orig.window_last)

    def test_jsonl_roundtrip_lossless(self, run, tmp_path):
        path = tmp_path / "out.jsonl"
        with JsonlSink(path) as sink:
            sink.write_all(run.records)
        assert read_jsonl(path) == run.records

    def test_kraken_roundtrip(self, run, tmp_path):
        path = tmp_path / "out.kraken"
        with KrakenSink(path) as sink:
            sink.write_all(run.records)
        rows = read_kraken(path)
        assert len(rows) == len(run.records)
        for orig, (status, header, taxid, length, score) in zip(run.records, rows):
            assert status == ("C" if orig.classified else "U")
            assert (header, taxid, length) == (
                orig.header, orig.taxon_id, orig.read_length)
            if orig.classified:
                assert score == orig.score

    def test_jsonl_lines_are_valid_json(self, run, tmp_path):
        path = tmp_path / "out.jsonl"
        with JsonlSink(path) as sink:
            sink.write_all(run.records)
        for line in path.read_text().splitlines():
            obj = json.loads(line)
            assert set(obj) >= {"read", "taxon_id", "score"}

    def test_open_sink_registry(self, tmp_path):
        for fmt in ("tsv", "jsonl", "kraken"):
            sink = open_sink(fmt, tmp_path / f"x.{fmt}")
            with sink:
                sink.write(ReadClassification.unclassified("r0"))
            assert (tmp_path / f"x.{fmt}").exists()
        with pytest.raises(UnknownFormatError):
            open_sink("xml", tmp_path / "x.xml")

    def test_handle_not_closed(self, run):
        buf = io.StringIO()
        with TsvSink(buf) as sink:
            sink.write_all(run.records[:3])
        assert not buf.closed  # caller-owned handles stay open
        assert buf.getvalue().count("\n") == 4  # header + 3 records


# ----------------------------------------------------------------- errors


class TestErrors:
    def test_open_missing_database(self, tmp_path):
        with pytest.raises(DatabaseFormatError):
            MetaCache.open(tmp_path / "nope")

    def test_open_corrupt_meta(self, tmp_path):
        db = tmp_path / "db"
        db.mkdir()
        (db / "database.meta").write_text("{ not json")
        with pytest.raises(DatabaseFormatError):
            MetaCache.open(db)

    def test_open_incomplete_meta(self, tmp_path):
        db = tmp_path / "db"
        db.mkdir()
        (db / "database.meta").write_text(
            json.dumps({"format_version": 1, "params": {}, "targets": []})
        )
        with pytest.raises(DatabaseFormatError):
            MetaCache.open(db)

    def test_open_missing_metadata_key(self, world, tmp_path):
        _, _, _, mc, _ = world
        mc.save(tmp_path / "db")
        meta_path = tmp_path / "db" / "database.meta"
        meta = json.loads(meta_path.read_text())
        del meta["n_partitions"]
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(DatabaseFormatError):
            MetaCache.open(tmp_path / "db")

    def test_open_corrupt_partition(self, world, tmp_path):
        _, _, _, mc, _ = world
        save_database_v1(mc.database, tmp_path / "db")
        (tmp_path / "db" / "database.cache0").write_bytes(b"garbage")
        with pytest.raises(DatabaseFormatError):
            MetaCache.open(tmp_path / "db")

    def test_wrong_format_version(self, world, tmp_path):
        _, _, _, mc, _ = world
        mc.save(tmp_path / "db")
        meta = json.loads((tmp_path / "db" / "database.meta").read_text())
        meta["format_version"] = 999
        (tmp_path / "db" / "database.meta").write_text(json.dumps(meta))
        with pytest.raises(DatabaseFormatError):
            MetaCache.open(tmp_path / "db")

    def test_invalid_read_type(self, world):
        _, _, _, mc, _ = world
        with pytest.raises(InvalidReadError):
            mc.session().classify([object()])

    def test_mate_count_mismatch(self, world):
        _, _, _, mc, named = world
        with pytest.raises(InvalidReadError):
            mc.session().classify(named[:5], mates=named[:3])

    def test_garbage_read_file(self, world, tmp_path):
        _, _, _, mc, _ = world
        bad = tmp_path / "junk.txt"
        bad.write_text("this is not sequence data\n")
        with pytest.raises(InvalidReadError):
            mc.session().classify_files(bad, sink=CollectSink())

    def test_hierarchy(self):
        assert issubclass(DatabaseFormatError, MetaCacheError)
        assert issubclass(InvalidReadError, MetaCacheError)
        # legacy except-ValueError call sites keep working
        assert issubclass(DatabaseFormatError, ValueError)
        assert issubclass(InvalidReadError, ValueError)

    def test_params_replace_validates(self):
        params = ClassificationParams()
        assert params.replace(min_hits=3).min_hits == 3
        assert params.replace(min_hits=3).max_candidates == params.max_candidates
        with pytest.raises(ValueError):
            params.replace(min_hits=0)


# ------------------------------------------------------------- genomics io


class TestReadSequences:
    def test_fasta_fastq_gzip_and_empty(self, tmp_path):
        fa = tmp_path / "a.fasta"
        fa.write_text(">s1\nACGT\n>s2\nGGCC\n")
        headers, seqs = read_sequences(fa)
        assert headers == ["s1", "s2"]
        assert [decode_sequence(s) for s in seqs] == ["ACGT", "GGCC"]

        fq = tmp_path / "a.fastq"
        fq.write_text("@q1\nACGT\n+\nIIII\n")
        headers, seqs = read_sequences(fq)
        assert headers == ["q1"]

        gz = tmp_path / "a.fasta.gz"
        gz.write_bytes(gzip.compress(fa.read_bytes()))
        headers, seqs = read_sequences(gz)
        assert headers == ["s1", "s2"]

        empty = tmp_path / "empty.fa"
        empty.write_text("")
        assert read_sequences(empty) == ([], [])

    def test_garbage_raises_typed_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("hello world\n")
        with pytest.raises(InvalidReadError):
            read_sequences(bad)

    def test_leading_blank_lines_ok_but_spaces_rejected(self, tmp_path):
        fa = tmp_path / "blanks.fasta"
        fa.write_text("\n\n>s1\nACGT\n")
        headers, _ = read_sequences(fa)
        assert headers == ["s1"]
        # a line of spaces is not a sequence file: typed error, not a
        # confusing parser failure further down
        spacey = tmp_path / "spacey.fasta"
        spacey.write_text("  \n>s1\nACGT\n")
        with pytest.raises(InvalidReadError):
            read_sequences(spacey)


# ------------------------------------------------------------- entry point


def test_python_dash_m_repro_runs():
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "--help"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert "metacache-repro" in proc.stdout
