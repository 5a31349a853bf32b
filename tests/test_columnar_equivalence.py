"""Equivalence harness: the columnar host side vs the per-read oracles.

From file to sink the host side moves batches, not reads: one block
parser fills ``PackedReads`` straight from file bytes, results travel
as :class:`~repro.api.records.ClassificationColumns`, sinks render a
batch with one join.  The contract is strong: the accepted FASTQ
grammar, every error, the packed buffers and every output byte are
those of the retained per-read code (``tests/reference/per_read_io.py``):

(a) parser vs the line-walking ``read_fastq`` on headers, packed
    buffers and the class and message of every error;
(b) each sink's ``write_all(columns)`` vs the per-record rows;
(c) a sink that defines only ``write`` still sees every record;
(d) a served request -- one slice of a batch, or split across two --
    renders the bytes ``classify_files`` writes.
"""

from __future__ import annotations

import asyncio
import gzip
import io
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import per_read_io as oracle
from repro.api import MetaCache, MetaCacheParams
from repro.api.records import (
    ClassificationColumns,
    ReadClassification,
    records_from_classification,
)
from repro.api import sinks as sinks_mod
from repro.api.sinks import CollectSink, TsvSink, open_sink, register_sink
from repro.core.classify import Classification
from repro.errors import InvalidReadError
from repro.genomics.alphabet import decode_sequence, encode_sequence
from repro.genomics.fastq import read_fastq
from repro.genomics.io import (
    iter_sequence_blocks,
    iter_sequence_records,
    iter_sequence_records_bytes,
)
from repro.genomics.reads import HISEQ, ReadSimulator
from repro.genomics.simulate import GenomeSimulator
from repro.pipeline.packed import PackedReads
from repro.pipeline.producer import read_file_producer
from repro.pipeline.queues import ClosableQueue
from repro.server import MicroBatcher
from repro.taxonomy.builder import build_taxonomy_for_genomes

# ------------------------------------------------------------- (a) the parser

_BASES = "ACGTNacgtUuRYKMSWn"
_QUALS = "@+I!#>~5"  # '@' and '+' are legal quality characters
_HEADER_CHARS = "r0 1\tx:/@+"


@st.composite
def fastq_records(draw, min_size=0, max_size=7):
    """``(header line, sequence, '+' line, quality)`` with equal lengths."""
    n = draw(st.integers(min_size, max_size))
    records = []
    for _ in range(n):
        length = draw(st.sampled_from([0, 0, 1, 2, 5, 9]))
        seq = "".join(draw(st.sampled_from(_BASES)) for _ in range(length))
        qual = "".join(draw(st.sampled_from(_QUALS)) for _ in range(length))
        head = "@" + draw(st.text(_HEADER_CHARS, max_size=6))
        plus = "+" + draw(st.sampled_from(["", "", "again", " x"]))
        records.append((head, seq, plus, qual))
    return records


_DEFECTS = (
    None,
    "cut-lines",  # the final record loses its last 1-3 lines
    "cut-quality",  # ... or the tail of its quality string
    "head-sigil",
    "plus-sigil",
    "length",
    "non-ascii",
)


@st.composite
def fastq_bytes(draw):
    """A FASTQ file as bytes: any benign layout, at most one defect."""
    records = [list(r) for r in draw(fastq_records())]
    defect = draw(st.sampled_from(_DEFECTS)) if records else None
    at = draw(st.integers(0, len(records) - 1)) if records else 0
    if defect == "head-sigil":
        records[at][0] = draw(st.sampled_from(["r1", ">r1", " @r1", "+"]))
    elif defect == "plus-sigil":
        records[at][2] = draw(st.sampled_from(["", "-", "@r", "ACGT"]))
    elif defect == "length":
        records[at][3] += "I"
    elif defect == "non-ascii":
        field = draw(st.sampled_from([0, 1, 3]))
        records[at][field] += "\xe9"
        if field == 1:
            records[at][3] += "I"  # keep the lengths equal: one defect
    eol = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    gap = st.sampled_from(["", "", eol, eol * 2])
    text = draw(gap)
    for record in records:
        text += eol.join(record) + eol + draw(gap)
    if defect == "cut-lines":
        lines = text.rstrip("\r\n").split(eol)
        text = eol.join(lines[: -draw(st.integers(1, 3))]) + eol
    elif defect == "cut-quality":
        text = text.rstrip("\r\n")[:-1]
    elif draw(st.booleans()):
        text = text.rstrip("\r\n") if text.strip("\r\n") else text  # no final newline
    return text.encode("latin-1")


def _oracle_outcome(data: bytes):
    """What the line-walking parser makes of a file holding ``data``."""
    handle = io.TextIOWrapper(io.BytesIO(data), encoding="ascii")
    try:
        return "ok", [(r.header, r.sequence, r.quality) for r in oracle.read_fastq(handle)]
    except InvalidReadError as exc:
        return "error", str(exc)
    except UnicodeDecodeError:
        return "error", ": not a text sequence file ("


def _outcome(parse):
    try:
        return "ok", parse()
    except InvalidReadError as exc:
        return "error", str(exc)


def _batches(path, batch_size, mates=None):
    """What the producer puts on the queue for ``path``."""
    queue = ClosableQueue(maxsize=0)
    queue.register_producer()
    read_file_producer(path, queue, batch_size, mates)
    return list(queue)


def _same_error(got: str, expected: str) -> bool:
    """Grammar errors word for word; decode errors by their prefix."""
    if expected.startswith(":"):
        return expected in got
    return got == expected


class TestParserAgainstOracle:
    @given(data=fastq_bytes(), batch_size=st.sampled_from([1, 2, 3, 4, 5, 4096]))
    @settings(max_examples=400, deadline=None)
    def test_records_and_errors(self, tmp_path_factory, data, batch_size):
        kind, expected = _oracle_outcome(data)
        path = tmp_path_factory.mktemp("fq") / "reads.fq"
        path.write_bytes(data)
        # the per-record view (quality strings too), on a path and a text handle
        for source in (path, io.StringIO(data.decode("latin-1"))):
            try:
                got = [(r.header, r.sequence, r.quality) for r in read_fastq(source)]
                assert (kind, expected) == ("ok", got)
            except InvalidReadError as exc:
                assert kind == "error" and _same_error(str(exc), expected)
            except UnicodeDecodeError:
                assert expected.startswith(":")
        if not data.lstrip(b"\r\n").startswith(b"@"):
            return  # not sniffed as FASTQ: the sniffer's own tests cover it
        views = {
            "file": lambda: list(iter_sequence_records(path)),
            "bytes": lambda: list(iter_sequence_records_bytes(data)),
            "blocks": lambda: [
                pair
                for headers, lines in iter_sequence_blocks(path, batch_size)
                for pair in zip(headers, [line[:-1].decode() for line in lines])
            ],
        }
        for name, view in views.items():
            got_kind, got = _outcome(view)
            assert got_kind == kind, (name, got, expected)
            if kind == "ok":
                assert got == [(h, s) for h, s, _ in expected], name
            else:
                assert _same_error(got, expected), (name, got, expected)

    @given(records=fastq_records(min_size=1, max_size=9), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_packed_batches(self, tmp_path_factory, records, data):
        """Buffer, offsets and read ids of every batch, at sizes around n."""
        n = len(records)
        batch_size = data.draw(st.sampled_from([1, 2, max(1, n - 1), n, n + 1]))
        path = tmp_path_factory.mktemp("fq") / "reads.fq"
        gap = data.draw(st.sampled_from(["", "\n"]))
        path.write_text("".join("\n".join(r) + "\n" + gap for r in records))
        expected = [(r.header, r.sequence) for r in oracle.read_fastq(path)]
        got = _batches(path, batch_size)
        assert [len(h) for h, _ in got] == [
            min(batch_size, n - i) for i in range(0, n, batch_size)
        ]
        for i, (headers, packed) in enumerate(got):
            want = expected[i * batch_size : (i + 1) * batch_size]
            assert headers == [h for h, _ in want]
            reference = PackedReads.from_reads([encode_sequence(s) for _, s in want])
            _assert_packed_identical(packed, reference)

    @given(records=fastq_records(max_size=6), extra=st.integers(-2, 2), batch_size=st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_paired_files_in_lock_step(self, tmp_path_factory, records, extra, batch_size):
        """Mates interleave by stride; a longer file on either side is an error."""
        tmp = tmp_path_factory.mktemp("pe")
        mates = (records + records[:1] * 2)[: max(0, len(records) + extra)]
        for name, recs in (("r1.fq", records), ("r2.fq", mates)):
            (tmp / name).write_text("".join("\n".join(r) + "\n" for r in recs))
        if len(mates) != len(records):
            with pytest.raises(InvalidReadError, match="paired files differ in length"):
                _batches(tmp / "r1.fq", batch_size, tmp / "r2.fq")
            return
        got = _batches(tmp / "r1.fq", batch_size, tmp / "r2.fq")
        assert sum(len(h) for h, _ in got) == len(records)
        for i, (headers, packed) in enumerate(got):
            lo, hi = i * batch_size, (i + 1) * batch_size
            assert headers == [r[0][1:].strip() for r in records[lo:hi]]
            reference = PackedReads.from_reads(
                [encode_sequence(r[1]) for r in records[lo:hi]],
                [encode_sequence(r[1]) for r in mates[lo:hi]],
            )
            _assert_packed_identical(packed, reference)

    def test_multi_member_gzip(self, tmp_path):
        member = b"@a\nACGT\n+\nIIII\n@b\nGG\n+\n@+\n"
        data = gzip.compress(member) + gzip.compress(member[:15]) + gzip.compress(member[15:])
        path = tmp_path / "reads.fq.gz"
        path.write_bytes(data)
        expected = [("a", "ACGT"), ("b", "GG")] * 2
        assert list(iter_sequence_records(path)) == expected
        assert list(iter_sequence_records_bytes(data)) == expected
        assert [h for h, _ in iter_sequence_blocks(path, 3)] == [["a", "b", "a"], ["b"]]

    def test_old_mac_line_ends_read_as_lines(self, tmp_path):
        """A lone CR ends a line, as it always did for files (universal newlines)."""
        data = b"@a\rAC\r+\rII\r\r@b\r\r+\r"
        path = tmp_path / "mac.fq"
        path.write_bytes(data)
        assert _oracle_outcome(data) == ("ok", [("a", "AC", "II"), ("b", "", "")])
        assert list(iter_sequence_records(path)) == [("a", "AC"), ("b", "")]
        assert list(iter_sequence_records_bytes(data)) == [("a", "AC"), ("b", "")]


def _assert_packed_identical(got: PackedReads, expected: PackedReads) -> None:
    for name in ("buffer", "offsets", "read_ids"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert (got.n_reads, got.paired) == (expected.n_reads, expected.paired)


class TestReadsFromAPipe:
    """No second ``open`` and no ``seek``: FIFOs and ``<(zcat ...)`` work."""

    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
    def test_classify_through_a_fifo(self, world, tmp_path, compress):
        mc, path, _ = world
        payload = path.read_bytes()
        fifo = tmp_path / "reads.fifo"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as out:
                out.write(gzip.compress(payload) if compress else payload)

        feeder = threading.Thread(target=feed)
        feeder.start()
        try:
            piped = CollectSink()
            mc.session().classify_files(fifo, sink=piped, batch_size=16)
        finally:
            feeder.join(timeout=30)
        assert not feeder.is_alive()
        direct = CollectSink()
        mc.session().classify_files(path, sink=direct, batch_size=16)
        assert piped.records == direct.records and len(piped.records) == 40

    def test_records_from_an_os_pipe(self):
        read_end, write_end = os.pipe()
        with open(write_end, "wb") as out:
            out.write(b"\n@a\nACGT\n+\nIIII\n")
        assert list(iter_sequence_records(f"/dev/fd/{read_end}")) == [("a", "ACGT")]
        os.close(read_end)


# ----------------------------------------------------- (b) records and sinks

_TEXT = st.text(
    st.sampled_from('r1 \t"\\/é世界\U0001f9ec,[]:'), max_size=8
)


@st.composite
def record_lists(draw):
    """Mixed classified / unclassified records, awkward headers included."""
    n = draw(st.integers(0, 9))
    records = []
    for _ in range(n):
        header, length = draw(_TEXT), draw(st.integers(0, 300))
        if draw(st.booleans()):
            records.append(ReadClassification.unclassified(header, length))
        else:
            records.append(
                ReadClassification(
                    header,
                    draw(st.integers(1, 2**31)),
                    draw(_TEXT),
                    draw(st.sampled_from(["species", "genus", "no rank"])),
                    draw(st.integers(1, 99)),
                    draw(st.integers(0, 2**32 - 1)),
                    draw(st.integers(0, 2**32 - 1)),
                    draw(st.integers(0, 2**32 - 1)),
                    length,
                )
            )
    return records


def _columns_of(records) -> ClassificationColumns:
    fields = [f for f in ReadClassification.__dataclass_fields__]
    return ClassificationColumns(*([getattr(r, f) for r in records] for f in fields))


def _oracle_bytes(fmt: str, records) -> str:
    header = "\t".join(TsvSink.COLUMNS) + "\n" if fmt == "tsv" else ""
    return header + "".join(oracle.ROW_FORMATS[fmt](r) + "\n" for r in records)


class TestSinksAgainstOracle:
    @given(records=record_lists())
    @settings(max_examples=200, deadline=None)
    def test_bulk_and_per_record_bytes(self, records):
        columns = _columns_of(records)
        for fmt in ("tsv", "jsonl", "kraken"):
            expected = _oracle_bytes(fmt, records)
            for feed in (
                lambda sink: sink.write_all(columns),
                lambda sink: sink.write_all(records),
                lambda sink: sum(1 for r in records if sink.write(r) is None),
            ):
                buffer = io.StringIO()
                with open_sink(fmt, buffer) as sink:
                    assert feed(sink) == len(records)
                    assert sink.n_written == len(records)
                assert buffer.getvalue() == expected, fmt

    @given(records=record_lists(), cut=st.tuples(st.integers(0, 9), st.integers(0, 9)))
    @settings(max_examples=100, deadline=None)
    def test_columns_are_a_sequence_of_records(self, records, cut):
        columns = _columns_of(records)
        assert len(columns) == len(records)
        assert list(columns) == records and columns == records
        assert [columns[i] for i in range(len(records))] == records
        lo, hi = min(cut), max(cut)
        part = columns[lo:hi]
        assert isinstance(part, ClassificationColumns) and list(part) == records[lo:hi]
        assert list(columns[:lo] + columns[lo:]) == records
        assert list(columns.rows()) == [oracle_fields(r) for r in records]

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_resolve_matches_the_per_read_loop(self, world, data):
        """Real taxonomy, real arrays -- with some reads struck back to taxon 0."""
        mc, _, named = world
        run = mc.session().classify(named)
        cls = run.classification
        strike = np.array(data.draw(st.lists(st.booleans(), min_size=40, max_size=40)))
        cls = Classification(
            np.where(strike, 0, cls.taxon), cls.best_target, cls.best_window_first,
            cls.best_window_last, cls.top_score,
        )
        headers = [h for h, _ in named]
        lengths = data.draw(st.sampled_from([None, run.query.read_lengths]))
        expected = oracle.records_from_classification(mc.database, headers, cls, lengths)
        columns = ClassificationColumns.resolve(mc.database, headers, cls, lengths)
        assert list(columns) == expected
        assert records_from_classification(mc.database, headers, cls, lengths) == expected


def oracle_fields(r: ReadClassification) -> tuple:
    return (r.header, r.taxon_id, r.taxon_name, r.rank, r.score, r.target,
            r.window_first, r.window_last, r.read_length)


# ------------------------------------------- (c) and (d): sessions and serving


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    genomes = GenomeSimulator(seed=11).simulate_collection(3, 2, 5000)
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    references = [
        (g.name, g.scaffolds[0], taxa.target_taxon[i]) for i, g in enumerate(genomes)
    ]
    mc = MetaCache.ephemeral(references, taxonomy, params=MetaCacheParams.small())
    reads = ReadSimulator(genomes, seed=5).simulate(HISEQ, 40)
    named = [(f"r{i} {i % 3}", codes) for i, codes in enumerate(reads.sequences)]
    path = tmp_path_factory.mktemp("world") / "reads.fq"
    path.write_text(
        "".join(f"@{h}\n{decode_sequence(s)}\n+\n{'I' * s.size}\n" for h, s in named)
    )
    yield mc, path, named
    mc.close()


class WriteOnlySink:
    """The Sink protocol and nothing more."""

    def __init__(self, dest):
        self.seen = dest

    def start(self):
        pass

    def write(self, record):
        self.seen.append(record)

    def finish(self):
        pass


def test_write_only_sink_sees_every_record_in_order(world):
    mc, path, named = world
    register_sink("write-only", WriteOnlySink)
    try:
        seen: list = []
        sink = open_sink("write-only", seen)
        report = mc.session().classify_files(path, sink=sink, batch_size=7)
    finally:
        del sinks_mod._REGISTRY["write-only"]
    assert report.n_reads == 40 and report.n_batches == 6
    assert seen == list(mc.session().classify(named).records)
    assert all(type(r) is ReadClassification for r in seen)


def test_runs_do_not_build_the_batch_to_answer_len_or_index(world, monkeypatch):
    mc, _, named = world
    run = mc.session().classify(named)
    built = []
    real_init = ReadClassification.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(ReadClassification, "__init__", counting_init)
    assert len(run) == 40 and run[3].header == "r3 0"
    assert next(iter(run)).header == "r0 0"
    assert len(run.records[5:9]) == 4
    buffer = io.StringIO()
    with TsvSink(buffer) as sink:
        assert sink.write_all(run.records) == 40
    assert len(built) == 2  # run[3] and the first of the iteration


def test_served_slices_render_the_bytes_classify_files_writes(world, tmp_path):
    """One request inside a batch, one split across two batches."""
    mc, path, named = world
    tsv = tmp_path / "direct.tsv"
    with TsvSink(tsv) as sink:
        mc.session().classify_files(path, sink=sink)
    lines = tsv.read_text().splitlines(keepends=True)
    headers = [h for h, _ in named]
    sequences = [s for _, s in named]

    async def scenario():
        batcher = MicroBatcher(mc.session(), max_batch_reads=16)
        await batcher.start()
        try:
            # 10 + 12 reads: the second request straddles the 16-read bound
            return await asyncio.gather(
                batcher.submit(headers[:10], PackedReads.from_reads(sequences[:10])),
                batcher.submit(headers[10:22], PackedReads.from_reads(sequences[10:22])),
            )
        finally:
            await batcher.close()

    whole, split = asyncio.run(scenario())
    for result, (lo, hi) in ((whole, (0, 10)), (split, (10, 22))):
        assert isinstance(result, ClassificationColumns)
        buffer = io.StringIO()
        with TsvSink(buffer) as sink:
            sink.write_all(result)
        assert buffer.getvalue() == lines[0] + "".join(lines[1 + lo : 1 + hi])
