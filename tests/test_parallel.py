"""Tests of the multi-process classify engine and its database sharing.

Covers the ordered chunk reassembly, the :class:`ParallelClassifier`
plan (byte-identical output vs single-process, per-chunk worker
errors, worker-crash detection), the lifetime of the private
format-v2 spill a non-mmap database is shared through (no spill
directory may outlive the moment every worker has attached), and the
``repro.api`` integration: ``session(workers=N).classify_files``
equivalence, engine reuse, and the filename-bearing
:class:`PipelineError` wrapping.  The process-level contract every pool shares (failed
start, SIGKILL, SIGINT, close/finalizer) lives in ``test_pool.py``.
"""

import os
import signal
import tempfile

import numpy as np
import pytest

from repro.api import (
    CollectSink,
    MetaCache,
    MetaCacheParams,
    PipelineError,
    TsvSink,
    WorkerCrashError,
)
from repro.core.classify import classify_reads
from repro.core.database import FileBackedDatabaseHandle
from repro.core.query import query_database
from repro.genomics.alphabet import decode_sequence
from repro.genomics.fasta import write_fasta
from repro.genomics.fastq import FastqRecord, write_fastq
from repro.genomics.reads import HISEQ, ReadSimulator
from repro.genomics.simulate import GenomeSimulator
from repro.parallel import OrderedReassembler, ParallelClassifier, ReadChunk
from repro.parallel.chunks import ChunkResult
from repro.taxonomy.builder import build_taxonomy_for_genomes
from repro.taxonomy.ncbi import write_ncbi_dump

from reference.index_v1 import save_database_v1

PARAMS = MetaCacheParams.small()
WORKERS = 2  # the CI box has few cores; 2 exercises every code path


@pytest.fixture(autouse=True)
def spill_dir(tmp_path, monkeypatch):
    """Point TMPDIR at a per-test directory; nothing may be left in it."""
    spills = tmp_path / "tmpdir"
    spills.mkdir()
    monkeypatch.setenv("TMPDIR", str(spills))
    monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
    yield spills
    assert not list(spills.iterdir()), "a spill directory outlived its pool"


def _genomes():
    genomes = GenomeSimulator(seed=17).simulate_collection(3, 2, 5000)
    return genomes, *build_taxonomy_for_genomes(genomes)


@pytest.fixture(scope="module")
def world():
    genomes, taxonomy, taxa = _genomes()
    references = [
        (g.name, g.scaffolds[0], taxa.target_taxon[i])
        for i, g in enumerate(genomes)
    ]
    mc = MetaCache.ephemeral(references, taxonomy, params=PARAMS)
    mc.database.condense()  # freeze the layout so every test sees the same
    reads = ReadSimulator(genomes, seed=29).simulate(HISEQ, 120)
    seqs = list(reads.sequences)
    headers = [f"r{i}" for i in range(len(seqs))]
    return mc, headers, seqs


@pytest.fixture(scope="module")
def serial_taxa(world):
    mc, _, seqs = world
    result = query_database(mc.database, seqs)
    return classify_reads(mc.database, result.candidates).taxon


@pytest.fixture()
def read_file(world, tmp_path):
    _, headers, seqs = world
    records = [
        FastqRecord(h, decode_sequence(s), "I" * s.size)
        for h, s in zip(headers, seqs)
    ]
    path = tmp_path / "reads.fastq"
    write_fastq(records, path)
    return path


def _chunks(headers, seqs, size):
    return [
        (headers[i : i + size], seqs[i : i + size])
        for i in range(0, len(seqs), size)
    ]


# ------------------------------------------------------------- reassembly


class TestOrderedReassembler:
    @staticmethod
    def _result(i):
        return ChunkResult(
            chunk_id=i,
            headers=[],
            classification=None,
            read_lengths=np.zeros(0, dtype=np.int64),
        )

    def test_restores_submission_order(self):
        asm = OrderedReassembler()
        out = []
        for i in (2, 0, 3, 1):
            asm.push(self._result(i))
            out.extend(r.chunk_id for r in asm.drain())
        assert out == [0, 1, 2, 3]
        assert asm.pending == 0
        assert asm.next_id == 4

    def test_rejects_duplicates(self):
        asm = OrderedReassembler()
        asm.push(self._result(0))
        with pytest.raises(ValueError):
            asm.push(self._result(0))
        list(asm.drain())
        with pytest.raises(ValueError):
            asm.push(self._result(0))  # already drained: rewound id


# ---------------------------------------------------------------- engine


class TestParallelClassifier:
    def test_byte_identical_and_ordered(self, world, serial_taxa):
        mc, headers, seqs = world
        with ParallelClassifier(mc.database, workers=WORKERS) as engine:
            results = list(engine.classify_chunks(_chunks(headers, seqs, 17)))
            # engine is reusable after a clean run
            again = list(engine.classify_chunks(_chunks(headers, seqs, 17)))
        assert [r.chunk_id for r in results] == list(range(len(results)))
        taxa = np.concatenate([r.classification.taxon for r in results])
        assert np.array_equal(taxa, serial_taxa)
        taxa2 = np.concatenate([r.classification.taxon for r in again])
        assert np.array_equal(taxa2, serial_taxa)
        assert sum(r.n_reads for r in results) == len(seqs)
        assert all(r.worker_id >= 0 and r.compute_seconds >= 0 for r in results)

    def test_worker_crash_raises_and_cleans_up(self, world):
        mc, headers, seqs = world
        engine = ParallelClassifier(mc.database, workers=WORKERS)

        def chunks():
            for i, c in enumerate(_chunks(headers, seqs, 10)):
                if i == 3:
                    # kill the whole pool: remaining chunks can never
                    # complete, so detection is deterministic
                    for slot in engine._pool.slots:
                        os.kill(slot.process.pid, signal.SIGKILL)
                yield c

        with pytest.raises(WorkerCrashError):
            list(engine.classify_chunks(chunks()))
        assert engine.closed

    def test_worker_task_error_surfaces_traceback(self, world):
        mc, headers, seqs = world
        engine = ParallelClassifier(mc.database, workers=WORKERS)
        # malformed input now fails at parent-side packing; to reach
        # the worker, poison a valid chunk's payload after validation
        chunk = ReadChunk(
            chunk_id=0,
            headers=["broken"],
            sequences=[np.zeros(60, dtype=np.uint8)],
        )
        chunk.packed.buffer = None  # worker-side sketch raises on this
        with pytest.raises(PipelineError, match="worker traceback"):
            list(engine.classify_chunks([chunk]))
        assert engine.closed

    def test_abandoned_run_closes_engine(self, world):
        mc, headers, seqs = world
        engine = ParallelClassifier(mc.database, workers=WORKERS)
        for result in engine.classify_chunks(_chunks(headers, seqs, 10)):
            break  # abandon mid-stream
        assert engine.closed
        with pytest.raises(PipelineError, match="closed"):
            list(engine.classify_chunks(_chunks(headers, seqs, 10)))

    def test_rejects_bad_worker_count(self, world):
        mc, _, _ = world
        with pytest.raises(ValueError):
            ParallelClassifier(mc.database, workers=0)

    def test_chunk_validation(self):
        with pytest.raises(ValueError):
            ReadChunk(chunk_id=0, headers=["a"], sequences=[])
        with pytest.raises(ValueError):
            ReadChunk(
                chunk_id=0,
                headers=["a"],
                sequences=[np.zeros(4, dtype=np.uint8)],
                mates=[],
            )


# ---------------------------------------------------------- spill lifetime


class TestSpillLifetime:
    """A non-mmap database reaches workers through a private v2 spill
    under TMPDIR that must be gone once every worker has attached."""

    @pytest.fixture()
    def handles(self, tmp_path):
        """A handle built from files and the same index reopened as v1."""
        genomes, taxonomy, taxa = _genomes()
        refs = tmp_path / "refs.fasta"
        write_fasta([rec for g in genomes for rec in g.to_fasta_records()], refs)
        write_ncbi_dump(taxonomy, tmp_path / "nodes.dmp", tmp_path / "names.dmp")
        mapping = {g.accession: taxa.target_taxon[i] for i, g in enumerate(genomes)}
        built = MetaCache.build(
            [refs], taxonomy=tmp_path, mapping=mapping, params=PARAMS
        )
        save_database_v1(built.database, tmp_path / "v1")
        with built, MetaCache.open(tmp_path / "v1") as v1:
            yield built, v1

    @staticmethod
    def _tsv(session, read_file, out):
        with TsvSink(out) as sink:
            session.classify_files(read_file, sink=sink, batch_size=16)
        return out.read_bytes()

    def test_spilled_handles_match_serial_and_leave_nothing(
        self, handles, read_file, tmp_path, spill_dir
    ):
        for i, mc in enumerate(handles):
            assert mc.database.mmap_path is None
            serial = self._tsv(mc.session(), read_file, tmp_path / f"s{i}.tsv")
            assert serial
            with mc.session(workers=WORKERS) as session:
                got = self._tsv(session, read_file, tmp_path / f"p{i}.tsv")
                # the first batch is back and the pool is still serving:
                # every worker holds its own mapping, the files are gone
                assert not session._engine.closed
                assert not list(spill_dir.iterdir())
            assert got == serial
            assert not list(spill_dir.iterdir())

    def test_failed_start_removes_spill(self, handles, spill_dir, monkeypatch):
        built, _ = handles
        seen = []

        def lost_directory(handle):
            seen.append(handle.directory)
            return {"directory": handle.directory + "-lost"}

        monkeypatch.setattr(FileBackedDatabaseHandle, "__getstate__", lost_directory)
        with pytest.raises(WorkerCrashError, match="worker traceback"):
            ParallelClassifier(built.database, workers=WORKERS)
        assert seen and all(d.startswith(str(spill_dir)) for d in seen)
        assert not list(spill_dir.iterdir())

    def test_worker_sigkill_leaves_no_spill(self, handles, read_file, spill_dir):
        _, v1 = handles
        with v1.session(workers=WORKERS) as session:
            victim = session._ensure_engine()._pool.slots[0].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            with pytest.raises(WorkerCrashError):
                session.classify_files(read_file, sink=CollectSink(), batch_size=8)
            assert not list(spill_dir.iterdir())


# ------------------------------------------------------------ api session


class TestClassifyFilesParallel:
    def test_byte_identical_tsv(self, world, read_file, tmp_path):
        mc, _, _ = world
        serial_out = tmp_path / "serial.tsv"
        parallel_out = tmp_path / "parallel.tsv"
        with TsvSink(serial_out) as sink:
            r1 = mc.session().classify_files(read_file, sink=sink, batch_size=16)
        with mc.session(workers=WORKERS) as session:
            with TsvSink(parallel_out) as sink:
                rn = session.classify_files(read_file, sink=sink, batch_size=16)
            # second call reuses the same engine (and stays identical)
            second = tmp_path / "parallel2.tsv"
            with TsvSink(second) as sink:
                session.classify_files(read_file, sink=sink, batch_size=16)
        assert serial_out.read_bytes() == parallel_out.read_bytes()
        assert serial_out.read_bytes() == second.read_bytes()
        assert rn.n_reads == r1.n_reads
        assert rn.n_classified == r1.n_classified
        assert rn.n_batches == r1.n_batches
        assert rn.taxon_counts == r1.taxon_counts

    def test_paired_end_parallel_matches_serial(self, world, read_file, tmp_path):
        mc, _, _ = world
        a, b = CollectSink(), CollectSink()
        mc.session().classify_files(read_file, read_file, sink=a, batch_size=16)
        with mc.session(workers=WORKERS) as session:
            session.classify_files(read_file, read_file, sink=b, batch_size=16)
        assert a.records == b.records

    def test_missing_file_raises_pipeline_error_with_filename(self, world):
        mc, _, _ = world
        with pytest.raises(PipelineError, match="no_such_file.fastq"):
            mc.session().classify_files("no_such_file.fastq", sink=CollectSink())

    def test_worker_crash_error_names_file(self, world, read_file, monkeypatch):
        mc, _, _ = world
        with mc.session(workers=WORKERS) as session:
            victim = session._ensure_engine()._pool.slots[0].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            with pytest.raises(WorkerCrashError, match="reads.fastq"):
                session.classify_files(read_file, sink=CollectSink(), batch_size=8)

    def test_metacache_close_shuts_down_pools(self, world, read_file):
        mc, _, _ = world
        session = mc.session(workers=WORKERS)
        session.classify_files(read_file, sink=CollectSink(), batch_size=16)
        assert session._engine is not None and not session._engine.closed
        mc.close()
        assert session._engine is None or session._engine.closed
