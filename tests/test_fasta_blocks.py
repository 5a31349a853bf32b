"""Differential harness: the chunked FASTA parser vs the per-line oracle.

:mod:`repro.genomics.fasta` cuts records out of fixed-size binary
chunks; ``tests/reference/fasta_per_line.py`` is the line walk over a
universal-newline text handle it replaced.  For any file -- CRLF, CR
and LF line ends mixed, blank and whitespace-only lines, whitespace
inside and around lines, empty records, lowercase and IUPAC letters,
``>`` inside headers, data before the first header, a byte outside
ASCII, no final newline -- and any chunk size, every view of the new
parser (``read_fasta``, ``read_fasta_blocks``, the read-file views of
:mod:`repro.genomics.io`, gzip'd or not, and the build's reference
producer) yields the oracle's records or fails where it fails.  FASTA
read files classify byte-identically to the same reads as FASTQ, and
references build the same database plain or gzip'd.
"""

from __future__ import annotations

import gzip
import io
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.genomics.fasta as fasta_mod
from reference import fasta_per_line as oracle
from reference import segments
from repro.api import MetaCache, MetaCacheParams
from repro.api.sinks import TsvSink
from repro.errors import BuildError, InvalidReadError
from repro.genomics.alphabet import decode_sequence, encode_sequence
from repro.genomics.fasta import read_fasta, read_fasta_blocks, write_fasta
from repro.genomics.io import (
    iter_fasta_blocks,
    iter_sequence_blocks,
    iter_sequence_records,
    read_sequence_block_bytes,
)
from repro.genomics.reads import HISEQ, ReadSimulator
from repro.genomics.simulate import GenomeSimulator
from repro.pipeline.producer import reference_blocks
from repro.taxonomy.builder import build_taxonomy_for_genomes

_BASES = "ACGTNacgtnURYKMSWBDHVryk-*."
# every ASCII character str.strip() strips, less the line ends
_SPACES = " \t\x0b\x0c\x1c\x1d\x1e\x1f"
_HEADER_CHARS = "ab1 _.>|\t"
_CHUNK_SIZES = [1, 2, 3, 5, 16, fasta_mod.CHUNK_BYTES]


@st.composite
def _line(draw, kind):
    """One line's text (no line end) of the given kind."""
    pad = st.text(_SPACES, max_size=2)
    if kind == "header":
        return ">" + draw(st.text(_HEADER_CHARS, max_size=6)) + draw(pad)
    if kind == "blank":
        return draw(st.sampled_from(["", "", " ", "\t \x0c"]))
    letters = draw(st.text(_BASES, max_size=9))
    if draw(st.integers(0, 4)) == 0:  # whitespace inside the line
        cut = draw(st.integers(0, len(letters)))
        letters = letters[:cut] + draw(st.text(_SPACES, min_size=1, max_size=2)) + letters[cut:]
    if draw(st.integers(0, 9)) == 0:  # a '>' that does not start the line
        letters = draw(st.sampled_from([" >", "\t>", "A>"])) + letters
    return draw(pad) + letters + draw(pad)


@st.composite
def fasta_bytes(draw):
    """A FASTA file as bytes: any benign layout, sometimes one defect."""
    kinds = ["blank"] * draw(st.integers(0, 2))
    if draw(st.integers(0, 5)) == 0:
        kinds.append("sequence")  # data before the first header
    for _ in range(draw(st.integers(0, 5))):
        kinds.append("header")
        kinds += draw(st.lists(st.sampled_from(["sequence", "sequence", "blank"]), max_size=4))
    text = ""
    for kind in kinds:
        text += draw(_line(kind)) + draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final newline
    if text and draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + "\xe9" + text[at:]  # a byte outside ASCII
    return text.encode("latin-1")


def _oracle_outcome(path):
    try:
        return "ok", [(r.header, r.sequence) for r in oracle.read_fasta(path)]
    except InvalidReadError:
        return "error", InvalidReadError
    except UnicodeDecodeError:
        return "error", UnicodeDecodeError


def _outcome(parse):
    try:
        return "ok", parse()
    except InvalidReadError:
        return "error", InvalidReadError
    except UnicodeDecodeError:
        return "error", UnicodeDecodeError


def _flat(blocks):
    """``(header, sequence str)`` pairs of ``(headers, sequences)`` blocks."""
    return [
        (header, bytes(sequence).decode("ascii"))
        for headers, sequences in blocks
        for header, sequence in zip(headers, sequences)
    ]


class TestParserAgainstOracle:
    @given(data=fasta_bytes(), chunk=st.sampled_from(_CHUNK_SIZES))
    @settings(max_examples=500, deadline=None)
    def test_records_and_errors(self, tmp_path_factory, data, chunk):
        path = tmp_path_factory.mktemp("fa") / "refs.fa"
        path.write_bytes(data)
        expected = _oracle_outcome(path)
        with mock.patch.object(fasta_mod, "CHUNK_BYTES", chunk):
            got = _outcome(lambda: [(r.header, r.sequence) for r in read_fasta(path)])
            with open(path, "rb") as handle:
                blocks = _outcome(lambda: _flat(read_fasta_blocks(handle)))
        assert blocks == got
        if expected[0] == "error" and not data.isascii():
            # which of two faults is met first depends on how much
            # either parser decodes at once
            assert got[0] == "error"
        else:
            assert got == expected

    @given(data=fasta_bytes(), chunk=st.sampled_from(_CHUNK_SIZES),
           batch_size=st.sampled_from([1, 2, 3, 4096]), compress=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_read_file_views(self, tmp_path_factory, data, chunk, batch_size, compress):
        """The sniffing views, plain or gzip'd: the oracle's records, or
        an ``InvalidReadError`` (sniffing, data before the first header
        and non-ASCII bytes all surface as that one type)."""
        directory = tmp_path_factory.mktemp("fa")
        plain, path = directory / "plain.fa", directory / "reads.fa"
        plain.write_bytes(data)
        path.write_bytes(gzip.compress(data) if compress else data)
        kind, expected = _oracle_outcome(plain)
        if kind == "error":
            expected = InvalidReadError
        with mock.patch.object(fasta_mod, "CHUNK_BYTES", chunk):
            views = [
                lambda: list(iter_sequence_records(path)),
                lambda: _flat(iter_sequence_blocks(path, batch_size)),
                lambda: _flat(iter_fasta_blocks(path)),
                lambda: _flat([read_sequence_block_bytes(path.read_bytes())]),
            ]
            for view in views:
                assert _outcome(view) == (kind, expected)

    @given(data=fasta_bytes(), chunk=st.sampled_from(_CHUNK_SIZES))
    @settings(max_examples=200, deadline=None)
    def test_reference_producer(self, tmp_path_factory, data, chunk):
        """The build's producer: the oracle's records, encoded, in order."""
        path = tmp_path_factory.mktemp("fa") / "refs.fa"
        path.write_bytes(data)
        kind, expected = _oracle_outcome(path)
        with mock.patch.object(fasta_mod, "CHUNK_BYTES", chunk):
            got = _outcome(lambda: list(reference_blocks([path])))
        if kind == "error":
            assert got == ("error", InvalidReadError)
            return
        items = got[1]
        assert got[0] == "ok" and sum(map(len, items)) == len(expected)
        assert [
            (header, decode_sequence(codes))
            for item in items
            for header, codes in zip(item.headers, segments(item.packed))
        ] == [(header, decode_sequence(encode_sequence(seq))) for header, seq in expected]

    def test_header_only_records_and_gt_inside_headers(self, tmp_path):
        path = tmp_path / "x.fa"
        path.write_bytes(b">\n>>a>b \r\nAC\n \t>x\r\r>c\x0c\nG T \n>")
        expected = _oracle_outcome(path)
        assert expected == (
            "ok", [("", ""), (">a>b", "AC>x"), ("c", "G T"), ("", "")]
        )
        for chunk in _CHUNK_SIZES:
            with mock.patch.object(fasta_mod, "CHUNK_BYTES", chunk):
                assert _outcome(
                    lambda: [(r.header, r.sequence) for r in read_fasta(path)]
                ) == expected

    def test_text_handles(self):
        text = ">a desc\r\nAC GT\r\n\r\n>b\nGG"
        assert [(r.header, r.sequence) for r in read_fasta(io.StringIO(text))] == [
            (r.header, r.sequence) for r in oracle.read_fasta(io.StringIO(text))
        ]


# ------------------------------------------------------- FASTA reads classify


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    genomes = GenomeSimulator(seed=17).simulate_collection(3, 2, 5000)
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    root = tmp_path_factory.mktemp("fasta-world")
    refs = root / "refs.fa"
    write_fasta([r for g in genomes for r in g.to_fasta_records()], refs)
    mapping = {g.accession: taxa.target_taxon[i] for i, g in enumerate(genomes)}
    reads = ReadSimulator(genomes, seed=6).simulate(HISEQ, 300)
    named = [(f"r{i} {i % 4}", decode_sequence(s)) for i, s in enumerate(reads.sequences)]
    return taxonomy, refs, mapping, named, root


def _classify_bytes(mc, path, batch_size) -> bytes:
    out = io.StringIO()
    with TsvSink(out) as sink:
        mc.session().classify_files(path, sink=sink, batch_size=batch_size)
    return out.getvalue().encode()


@pytest.mark.parametrize("batch_size", [1, 7, 4096])
@pytest.mark.parametrize("layout", ["wrapped", "crlf-lower", "gzip"])
def test_fasta_reads_classify_as_fastq(world, layout, batch_size):
    taxonomy, refs, mapping, named, root = world
    mc = MetaCache.build([refs], taxonomy, mapping, params=MetaCacheParams.small())
    fastq = root / "reads.fq"
    fastq.write_text("".join(f"@{h}\n{s}\n+\n{'I' * len(s)}\n" for h, s in named))
    eol = "\r\n" if layout == "crlf-lower" else "\n"
    text = ""
    for i, (header, sequence) in enumerate(named):
        if layout == "crlf-lower":
            sequence = sequence.lower()
        width = 7 + i % 50
        lines = [sequence[j : j + width] for j in range(0, len(sequence), width)]
        text += f">{header}{eol}" + "".join(line + eol for line in lines)
    fasta = root / f"reads-{layout}.fa"
    data = text.encode("ascii")
    fasta.write_bytes(gzip.compress(data) if layout == "gzip" else data)
    got = _classify_bytes(mc, fasta, batch_size)
    want = _classify_bytes(mc, fastq, batch_size)
    assert got == want
    assert got.count(b"\n") >= len(named)
    mc.close()


# ------------------------------------------------------ references, gzip'd


def test_gzip_references_build_the_same_bytes(world, tmp_path):
    taxonomy, refs, mapping, _, _ = world
    gz = tmp_path / "refs.fa.gz"
    gz.write_bytes(gzip.compress(refs.read_bytes()))
    saved = []
    for path in (refs, gz):
        mc = MetaCache.build([path], taxonomy, mapping, params=MetaCacheParams.small())
        mc.save(tmp_path / path.name.replace(".", "-"))
        saved.append({
            p.name: p.read_bytes()
            for p in sorted((tmp_path / path.name.replace(".", "-")).iterdir())
        })
        mc.close()
    assert saved[0] == saved[1]


@pytest.mark.parametrize(
    "content",
    [b"@r0\nACGT\n+\nIIII\n", b"\x89PNG\r\n\x1a\n\x00\x00", b"ACGT\n>a\nACGT\n",
     b">a\nAC\xc3\xa9GT\n", gzip.compress(b"@r0\nACGT\n+\nIIII\n")],
    ids=["fastq", "binary", "data-before-header", "non-ascii", "gzip-fastq"],
)
def test_a_reference_that_is_not_fasta_is_named(world, tmp_path, content):
    taxonomy, refs, mapping, _, _ = world
    bad = tmp_path / "bad.fa"
    bad.write_bytes(content)
    with pytest.raises((InvalidReadError, BuildError)) as info:
        MetaCache.build([refs, bad], taxonomy, mapping, params=MetaCacheParams.small())
    assert str(bad) in str(info.value)
