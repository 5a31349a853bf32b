"""Differential tests: concurrent serving == one-shot classification.

The acceptance bar for the serving layer: N concurrent clients
posting randomized slices of a read file must receive responses
whose concatenation is *byte-identical* to a single
``QuerySession.classify_files`` run over the same file, against an
in-memory database and an mmap-opened format-v2 database.  Any
divergence (reordering inside the batcher, a demux off-by-one,
formatting drift between the server's sink use and the pipeline's)
fails the byte compare.
"""

import http.client
import io
import random
import threading

import pytest

from repro.api import MetaCache, MetaCacheParams, TsvSink
from repro.genomics.alphabet import decode_sequence
from repro.genomics.fastq import FastqRecord, write_fastq
from repro.genomics.reads import HISEQ, ReadSimulator
from repro.genomics.simulate import GenomeSimulator
from repro.server import ClassificationServer, ServerThread
from repro.taxonomy.builder import build_taxonomy_for_genomes

PARAMS = MetaCacheParams.small()
N_READS = 48
N_CLIENTS = 6


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """An ephemeral database, a saved v2 copy, and a FASTQ read file."""
    root = tmp_path_factory.mktemp("server_diff")
    genomes = GenomeSimulator(seed=23).simulate_collection(3, 2, 5000)
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    references = [
        (g.name, g.scaffolds[0], taxa.target_taxon[i])
        for i, g in enumerate(genomes)
    ]
    mc = MetaCache.ephemeral(references, taxonomy, params=PARAMS)
    mc.save(root / "db_v2", format=2)

    reads = ReadSimulator(genomes, seed=41).simulate(HISEQ, N_READS)
    records = [
        FastqRecord(f"r{i}", decode_sequence(s), "I" * s.size)
        for i, s in enumerate(reads.sequences)
    ]
    reads_path = root / "sample.fastq"
    write_fastq(records, reads_path)
    yield root, mc, records, reads_path
    mc.close()


def _one_shot_tsv(handle: MetaCache, reads_path) -> str:
    """The reference output: classify_files through a TSV sink."""
    buffer = io.StringIO()
    session = handle.session()
    try:
        with TsvSink(buffer) as sink:
            session.classify_files(reads_path, sink=sink)
    finally:
        session.close()
    return buffer.getvalue()


def _random_slices(n: int, k: int, seed: int) -> list[tuple[int, int]]:
    """Split range(n) into k contiguous, randomly sized, non-empty slices."""
    rng = random.Random(seed)
    cuts = sorted(rng.sample(range(1, n), k - 1))
    bounds = [0, *cuts, n]
    return list(zip(bounds[:-1], bounds[1:]))


def _post_fastq(host, port, records) -> str:
    """POST a slice of FASTQ records; return the TSV response body."""
    buffer = io.StringIO()
    write_fastq(records, buffer)
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        conn.request("POST", "/classify", body=buffer.getvalue().encode())
        resp = conn.getresponse()
        body = resp.read().decode()
        assert resp.status == 200, body
        return body
    finally:
        conn.close()


def _serve_and_collect(handle, records, *, seed) -> str:
    """Run the server; N concurrent clients classify random slices."""
    session = handle.session()
    server = ClassificationServer(session, port=0)
    slices = _random_slices(len(records), N_CLIENTS, seed)
    responses: list[str | None] = [None] * len(slices)
    errors: list[BaseException] = []

    def client(i, start, stop):
        try:
            responses[i] = _post_fastq(
                server.host, server.port, records[start:stop]
            )
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    try:
        with ServerThread(server):
            threads = [
                threading.Thread(target=client, args=(i, start, stop))
                for i, (start, stop) in enumerate(slices)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
    finally:
        session.close()
    if errors:
        raise errors[0]

    # each response repeats the TSV header; keep exactly one
    bodies = []
    header = None
    for resp in responses:
        lines = resp.splitlines(keepends=True)
        header = lines[0]
        bodies.append("".join(lines[1:]))
    return header + "".join(bodies)


class TestDifferential:
    def test_in_memory_database(self, world):
        _, mc, records, reads_path = world
        expected = _one_shot_tsv(mc, reads_path)
        served = _serve_and_collect(mc, records, seed=101)
        assert served == expected

    def test_mmap_database(self, world):
        root, _, records, reads_path = world
        mc = MetaCache.open(root / "db_v2", mmap=True)
        try:
            expected = _one_shot_tsv(mc, reads_path)
            served = _serve_and_collect(mc, records, seed=201)
        finally:
            mc.close()
        assert served == expected

    def test_mmap_equals_in_memory(self, world):
        """Cross-check: the two database layouts serve identical bytes."""
        root, mc, records, _ = world
        served_mem = _serve_and_collect(mc, records, seed=300)
        mm = MetaCache.open(root / "db_v2", mmap=True)
        try:
            served_mmap = _serve_and_collect(mm, records, seed=301)
        finally:
            mm.close()
        assert served_mem == served_mmap
