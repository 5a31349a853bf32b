"""Tests for the producer pipeline: the prefetching thread and its sources."""

import gzip
import itertools
import os
import sys
import threading

import pytest

from repro.api import MetaCache, MetaCacheParams
from repro.core.builder import DatabaseBuilder
from repro.errors import BuildError, InvalidReadError, PipelineError
from repro.genomics.alphabet import decode_sequence
from repro.genomics.fasta import write_fasta
from repro.genomics.fastq import FastqRecord, write_fastq
from repro.genomics.reads import HISEQ, ReadSimulator
from repro.genomics.simulate import GenomeSimulator
from repro.pipeline.packed import PackedReads
import repro.pipeline.producer as producer_mod
from repro.pipeline.producer import prefetched, read_batches, reference_blocks
from repro.taxonomy.builder import build_taxonomy_for_genomes

from reference import segments

PARAMS = MetaCacheParams.small()

try:
    AFFINITY = os.sched_getaffinity(0)
except AttributeError:  # no affinity API on this platform
    AFFINITY = set()


def _counted(n, made, closed_on=None):
    """0 .. n-1, appending each to ``made`` as it is produced; records
    the thread it is closed on in ``closed_on``."""
    try:
        for i in range(n):
            made.append(i)
            yield i
    finally:
        if closed_on is not None:
            closed_on.append(threading.current_thread())


class TestPrefetched:
    def test_roundtrip_in_order_then_ends(self):
        threads = threading.active_count()
        made, closed_on = [], []
        with prefetched(_counted(50, made, closed_on), 3) as items:
            assert list(items) == list(range(50))
            assert list(items) == []  # ended: nothing more, no hang
        assert made == list(range(50))
        assert closed_on and closed_on[0] is not threading.current_thread()
        assert threading.active_count() == threads

    def test_reference_files_roundtrip(self, tmp_path):
        # parsed on the producer thread, consumed here: every reference
        # of every file arrives once, files in their given order
        paths = []
        for i in range(3):
            p = tmp_path / f"f{i}.fasta"
            write_fasta([(f"g{i}_{j}", "ACGTACGT") for j in range(4)], p)
            paths.append(p)
        with prefetched(reference_blocks(paths), 2) as blocks:
            got = [(block.path, h) for block in blocks for h in block.headers]
        assert got == [
            (str(p), f"g{i}_{j}") for i, p in enumerate(paths) for j in range(4)
        ]

    def test_empty_source(self):
        with prefetched(iter(()), 1) as items:
            assert list(items) == []

    def test_producer_error_raised_at_its_position(self):
        def failing():
            yield 1
            yield 2
            raise ValueError("parse failed")

        got = []
        with pytest.raises(ValueError, match="parse failed"):
            with prefetched(failing(), 8) as items:
                for item in items:
                    got.append(item)
        assert got == [1, 2]

    @pytest.mark.parametrize("depth", [1, 4])
    def test_consumer_error_stops_the_producer(self, depth):
        threads = threading.active_count()
        made, closed_on = [], []
        with pytest.raises(RuntimeError, match="consumer failed"):
            with prefetched(_counted(10_000, made, closed_on), depth) as items:
                next(items)
                raise RuntimeError("consumer failed")
        # the queue's depth, the item in the consumer's hands and the
        # one being put when the stop came
        assert len(made) <= depth + 2
        assert closed_on and closed_on[0] is not threading.current_thread()
        assert threading.active_count() == threads

    def test_leaving_early_stops_the_producer(self):
        made = []
        with prefetched(_counted(10_000, made), 2) as items:
            for item in items:
                if item == 3:
                    break
        # four taken, two queued, one being put when the stop came
        assert len(made) <= 4 + 2 + 1

    def test_stop_under_frequent_thread_switches(self):
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for taken in range(40):
                made = []
                with prefetched(_counted(1000, made), 1) as items:
                    assert list(itertools.islice(items, taken)) == list(range(taken))
                assert len(made) <= taken + 1 + 1
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads


class TestProducers:
    def test_fasta_producer(self, tmp_path, monkeypatch):
        # references join a block until the next would pass BLOCK_BASES
        path = tmp_path / "refs.fasta"
        write_fasta(
            [("g1", "ACGT" * 10), ("g2", "TTTT" * 5), ("g3", "GA" * 8)], path
        )
        for block_bases, blocks in (
            (1, [["g1"], ["g2"], ["g3"]]),
            (70, [["g1", "g2"], ["g3"]]),
            (producer_mod.BLOCK_BASES, [["g1", "g2", "g3"]]),
        ):
            monkeypatch.setattr(producer_mod, "BLOCK_BASES", block_bases)
            items = list(reference_blocks([path]))
            assert [item.headers for item in items] == blocks
            assert {item.path for item in items} == {str(path)}
            packed = [s for item in items for s in segments(item.packed)]
            assert [s.size for s in packed] == [40, 20, 16]
            assert decode_sequence(packed[2]) == "GA" * 8

    def test_fasta_producer_blocks_stay_in_their_file(self, tmp_path):
        paths = [tmp_path / "a.fasta", tmp_path / "b.fasta.gz"]
        write_fasta([("a1", "ACGT")], paths[0])
        with gzip.open(paths[1], "wt") as handle:
            write_fasta([("b1", "GG"), ("b2", "TT")], handle)
        assert [(item.path, item.headers) for item in reference_blocks(paths)] == [
            (str(paths[0]), ["a1"]), (str(paths[1]), ["b1", "b2"])
        ]

    def test_fastq_producer(self, tmp_path):
        # the query-side producer: FASTQ reads, optionally with mates
        path = tmp_path / "reads.fastq"
        write_fastq(
            [FastqRecord(f"r{i}", "ACGT", "IIII") for i in range(5)], path
        )
        mates = tmp_path / "mates.fasta"
        write_fasta([(f"m{i}", "GG") for i in range(5)], mates)
        for mates_path, bases_per_read in ((None, 4), (mates, 6)):
            items = list(read_batches(path, 2, mates_path))
            assert [len(packed) for _, packed in items] == [2, 2, 1]
            assert [h for headers, _ in items for h in headers] == [
                f"r{i}" for i in range(5)
            ]
            assert all(
                packed.paired == (mates_path is not None)
                and packed.total_bases == bases_per_read * len(headers)
                for headers, packed in items
            )

    @pytest.mark.parametrize("n_mates", [3, 4, 5])
    def test_read_file_producer_rejects_unequal_pairs(self, tmp_path, n_mates):
        # 4 reads at batch size 2: the mates file ends inside a batch,
        # or runs past the reads file's last (full) batch
        path = tmp_path / "reads.fasta"
        write_fasta([(f"r{i}", "ACGT") for i in range(4)], path)
        mates = tmp_path / "mates.fasta"
        write_fasta([(f"m{i}", "ACGT") for i in range(n_mates)], mates)
        if n_mates == 4:
            assert sum(len(h) for h, _ in read_batches(path, 2, mates)) == 4
        else:
            with pytest.raises(InvalidReadError, match="differ in length"):
                list(read_batches(path, 2, mates))

    def test_producer_closes_on_error(self, tmp_path):
        threads = threading.active_count()
        with pytest.raises(FileNotFoundError):
            with prefetched(reference_blocks([tmp_path / "missing.fasta"]), 8) as blocks:
                list(blocks)
        assert threading.active_count() == threads


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A taxonomy, a reference file of many one-reference blocks, its
    mapping, a database and a reads file."""
    root = tmp_path_factory.mktemp("pipeline")
    genomes = GenomeSimulator(seed=23).simulate_collection(3, 2, 4000)
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    acc2tax = {g.accession: taxa.target_taxon[i] for i, g in enumerate(genomes)}
    refs = root / "refs.fasta"
    write_fasta(
        [r for _ in range(10) for g in genomes for r in g.to_fasta_records()], refs
    )
    mc = MetaCache.ephemeral(
        [(g.name, g.scaffolds[0], taxa.target_taxon[i]) for i, g in enumerate(genomes)],
        taxonomy,
        params=PARAMS,
    )
    reads = ReadSimulator(genomes, seed=3).simulate(HISEQ, 400)
    reads_path = root / "reads.fasta"
    write_fasta(
        [(f"r{i}", decode_sequence(s)) for i, s in enumerate(reads.sequences)],
        reads_path,
    )
    return genomes, taxonomy, acc2tax, refs, mc, reads_path


class _FailingSink:
    def write(self, record):
        raise RuntimeError("sink exploded")


class TestStopsOnFailure:
    def test_failing_build_stops_parsing(self, world, monkeypatch):
        genomes, taxonomy, acc2tax, refs, _, _ = world
        monkeypatch.setattr(producer_mod, "BLOCK_BASES", 1)  # a block per reference
        made = []
        pack = PackedReads.from_ascii.__func__

        def counted(cls, sequences, mates=None):
            made.append(len(sequences))
            return pack(cls, sequences, mates)

        monkeypatch.setattr(PackedReads, "from_ascii", classmethod(counted))
        unmapped = dict(acc2tax)
        del unmapped[genomes[0].accession]  # the file's first reference
        threads = threading.active_count()
        with pytest.raises(BuildError):
            DatabaseBuilder(taxonomy, PARAMS).add_fasta([refs], unmapped)
        assert 10 * len(genomes) > producer_mod.REFERENCE_DEPTH + 2
        assert len(made) <= producer_mod.REFERENCE_DEPTH + 2
        assert threading.active_count() == threads

    def test_failing_sink_leaves_no_thread(self, world):
        *_, mc, reads_path = world
        threads = threading.active_count()
        for mates_path in (None, reads_path):
            with pytest.raises(PipelineError, match="sink exploded"):
                mc.session().classify_files(
                    reads_path, mates_path, sink=_FailingSink(), batch_size=8
                )
            assert threading.active_count() == threads
        if AFFINITY:
            assert os.sched_getaffinity(0) == AFFINITY


@pytest.mark.skipif(len(AFFINITY) < 2, reason="needs an affinity API and two cores")
def test_producer_thread_keeps_the_process_affinity(world, monkeypatch):
    """The producer starts before the slice threads pin the caller to
    one core, so it runs on every core the process may use."""
    *_, mc, reads_path = world
    seen = []
    parse = producer_mod.iter_sequence_blocks

    def recorded(path, batch_size):
        seen.append((threading.current_thread(), os.sched_getaffinity(0)))
        return parse(path, batch_size)

    monkeypatch.setattr(producer_mod, "iter_sequence_blocks", recorded)
    report = mc.session().classify_files(reads_path, batch_size=64)
    assert report.n_reads == 400
    assert seen
    thread, affinity = seen[0]
    assert thread is not threading.current_thread()
    assert affinity == AFFINITY
