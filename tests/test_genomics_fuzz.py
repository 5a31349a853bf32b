"""Fuzz/property tests for the FASTA/FASTQ ingest parsers.

The serving layer feeds *untrusted* bytes into the parsers, so the
contract hardened here is: for ANY input -- truncated gzip members,
CRLF line endings, empty records, sigil characters inside quality
lines, binary garbage, random mutations of valid files -- the ingest
layer either yields records or raises a typed
:class:`repro.errors.MetaCacheError` (in practice
:class:`~repro.errors.InvalidReadError`).  Never a bare
``EOFError`` / ``UnicodeDecodeError`` / ``zlib.error`` /
``ValueError``, and never a hang (the conftest deadlock alarm turns
a hang into a failure).  A live-server leg asserts the same property
end-to-end: mutated bodies are answered 200/400/413, never a 500,
and the handler survives to serve the next request.
"""

import gzip
import random

import pytest

from repro.api import MetaCache, MetaCacheParams
from repro.errors import InvalidReadError, MetaCacheError
from repro.genomics.io import (
    iter_sequence_records,
    iter_sequence_records_bytes,
)
from repro.genomics.simulate import GenomeSimulator
from repro.server import ClassificationServer, ServerThread
from repro.taxonomy.builder import build_taxonomy_for_genomes

# ------------------------------------------------------------- corpus


def _base_fasta() -> bytes:
    return (
        ">r0 first\nACGTACGTACGTACGT\nACGT\n"
        ">r1\nTTTTGGGGCCCCAAAA\n"
        ">r2 third\nACACACACACACACAC\n"
    ).encode()


def _base_fastq() -> bytes:
    return (
        "@r0\nACGTACGTACGTACGT\n+\nIIIIIIIIIIIIIIII\n"
        "@r1\nTTTTGGGGCCCCAAAA\n+r1\nJJJJJJJJJJJJJJJJ\n"
        "@r2\nACACACACACACACAC\n+\nKKKKKKKKKKKKKKKK\n"
    ).encode()


def _mutate(data: bytes, rng: random.Random) -> bytes:
    """Apply 1-3 random structure-breaking mutations to valid bytes."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(8)
        if op == 0 and len(out) > 2:  # truncate anywhere
            del out[rng.randrange(1, len(out)) :]
        elif op == 1 and out:  # flip a byte (may become non-ASCII)
            i = rng.randrange(len(out))
            out[i] = rng.randrange(256)
        elif op == 2 and out:  # inject a sigil mid-stream
            out.insert(rng.randrange(len(out)), ord(rng.choice(">@+")))
        elif op == 3:  # convert to CRLF line endings
            out = bytearray(bytes(out).replace(b"\n", b"\r\n"))
        elif op == 4 and out:  # delete a whole line
            lines = bytes(out).split(b"\n")
            del lines[rng.randrange(len(lines))]
            out = bytearray(b"\n".join(lines))
        elif op == 5 and out:  # duplicate a line
            lines = bytes(out).split(b"\n")
            lines.insert(
                rng.randrange(len(lines)), lines[rng.randrange(len(lines))]
            )
            out = bytearray(b"\n".join(lines))
        elif op == 6:  # gzip the (possibly already mutated) payload...
            out = bytearray(gzip.compress(bytes(out)))
            if rng.random() < 0.7 and len(out) > 4:  # ...then truncate it
                del out[rng.randrange(4, len(out)) :]
        elif op == 7:  # blank/garbage prefix
            out[:0] = rng.choice([b"\n\n", b"\r\n", b"\x00\x01", b"   "])
    return bytes(out)


def _assert_typed(data: bytes) -> None:
    """The property under test: records out, or MetaCacheError, only."""
    try:
        records = list(iter_sequence_records_bytes(data, name="fuzz"))
    except MetaCacheError:
        return
    for header, seq in records:
        assert isinstance(header, str) and isinstance(seq, str)


# -------------------------------------------------------------- properties


@pytest.mark.parametrize("seed", range(60))
def test_mutated_bytes_never_raise_bare_exceptions(seed):
    rng = random.Random(seed)
    base = _base_fasta() if seed % 2 == 0 else _base_fastq()
    _assert_typed(_mutate(base, rng))


@pytest.mark.parametrize("seed", range(20))
def test_mutated_files_never_raise_bare_exceptions(seed, tmp_path):
    """Same property through the file-path entry point (gzip sniffing)."""
    rng = random.Random(1000 + seed)
    base = _base_fastq() if seed % 2 == 0 else _base_fasta()
    path = tmp_path / "fuzz.bin"
    path.write_bytes(_mutate(base, rng))
    try:
        list(iter_sequence_records(path))
    except MetaCacheError:
        pass


# ------------------------------------------------------- directed cases


class TestDirectedCases:
    def test_truncated_gzip_member(self, tmp_path):
        payload = gzip.compress(_base_fastq())
        for cut in (len(payload) // 2, len(payload) - 1):
            data = payload[:cut]
            with pytest.raises(InvalidReadError, match="gzip"):
                list(iter_sequence_records_bytes(data))
            path = tmp_path / "trunc.fq.gz"
            path.write_bytes(data)
            with pytest.raises(InvalidReadError):
                list(iter_sequence_records(path))

    def test_corrupt_gzip_payload(self):
        payload = bytearray(gzip.compress(_base_fasta()))
        payload[12] ^= 0xFF  # damage the deflate stream
        with pytest.raises(InvalidReadError):
            list(iter_sequence_records_bytes(bytes(payload)))

    def test_gzip_bomb_rejected_by_decompression_bound(self):
        # ~10 MB of 'A' compresses to ~10 KB: a size check on the
        # compressed body alone would admit it
        bomb = gzip.compress(b">b\n" + b"A" * 10_000_000)
        assert len(bomb) < 20_000
        with pytest.raises(InvalidReadError, match="inflates past"):
            list(
                iter_sequence_records_bytes(
                    bomb, max_decompressed_bytes=65536
                )
            )
        # within the bound, bounded decompression behaves like the
        # trusting path
        small = gzip.compress(_base_fasta())
        bounded = list(
            iter_sequence_records_bytes(small, max_decompressed_bytes=65536)
        )
        assert bounded == list(iter_sequence_records_bytes(small))

    def test_truncated_gzip_rejected_under_bound_too(self):
        payload = gzip.compress(_base_fastq())
        with pytest.raises(InvalidReadError, match="gzip"):
            list(
                iter_sequence_records_bytes(
                    payload[: len(payload) // 2],
                    max_decompressed_bytes=65536,
                )
            )

    def test_multi_member_gzip_parses_all_members_under_bound(self):
        # bgzip / bcl2fastq / `cat a.fq.gz b.fq.gz` emit multiple
        # back-to-back gzip members; the bounded server path must not
        # silently stop at the first end-of-stream marker
        multi = gzip.compress(_base_fastq()) + gzip.compress(_base_fastq())
        trusting = list(iter_sequence_records_bytes(multi))
        bounded = list(
            iter_sequence_records_bytes(multi, max_decompressed_bytes=65536)
        )
        assert bounded == trusting
        assert len(bounded) == 6  # 3 FASTQ records per member

    def test_gzip_bomb_split_across_members_still_rejected(self):
        # the inflation bound applies to the total across members,
        # not per member
        half = gzip.compress(b">b\n" + b"A" * 40_000)
        with pytest.raises(InvalidReadError, match="inflates past"):
            list(
                iter_sequence_records_bytes(
                    half + half, max_decompressed_bytes=65536
                )
            )

    def test_nul_padding_between_and_after_members_accepted(self):
        # tape-block / archiver zero padding between members and after
        # the last one is tolerated by gzip.decompress; the bounded
        # path must agree
        member = gzip.compress(_base_fastq())
        for padded, records in [
            (gzip.compress(_base_fasta()) + b"\x00" * 8, 3),
            (member + b"\x00" * 512 + member + b"\x00" * 8, 6),
        ]:
            trusting = list(iter_sequence_records_bytes(padded))
            bounded = list(
                iter_sequence_records_bytes(
                    padded, max_decompressed_bytes=65536
                )
            )
            assert bounded == trusting
            assert len(bounded) == records

    def test_trailing_garbage_after_gzip_member_rejected(self):
        data = gzip.compress(_base_fasta()) + b"not a gzip member"
        with pytest.raises(InvalidReadError):
            list(
                iter_sequence_records_bytes(
                    data, max_decompressed_bytes=65536
                )
            )
        with pytest.raises(InvalidReadError):
            list(iter_sequence_records_bytes(data))

    def test_crlf_line_endings_parse(self):
        fasta = _base_fasta().replace(b"\n", b"\r\n")
        records = list(iter_sequence_records_bytes(fasta))
        assert [h for h, _ in records] == ["r0 first", "r1", "r2 third"]
        fastq = _base_fastq().replace(b"\n", b"\r\n")
        assert len(list(iter_sequence_records_bytes(fastq))) == 3

    def test_empty_input_and_empty_records(self):
        assert list(iter_sequence_records_bytes(b"")) == []
        assert list(iter_sequence_records_bytes(b"\n\n\n")) == []
        # a header with no sequence lines is an empty record, not an error
        records = list(iter_sequence_records_bytes(b">a\n>b\nACGT\n"))
        assert records == [("a", ""), ("b", "ACGT")]

    def test_sigils_inside_quality_lines(self):
        # '@' and '>' are legal quality characters; the 4-line grammar
        # must not resynchronize on them
        data = b"@r0\nACGT\n+\n@>@>\n@r1\nTTTT\n+\nIIII\n"
        records = list(iter_sequence_records_bytes(data))
        assert [h for h, _ in records] == ["r0", "r1"]

    def test_truncated_final_fastq_record(self):
        with pytest.raises(InvalidReadError):
            list(iter_sequence_records_bytes(b"@r0\nACGT\n+\nIIII\n@r1\nACGT\n"))

    def test_non_ascii_bytes(self):
        with pytest.raises(InvalidReadError):
            list(iter_sequence_records_bytes(b">r0\nAC\xc3\xa9GT\n"))

    def test_sequence_before_header(self):
        with pytest.raises(InvalidReadError):
            list(iter_sequence_records_bytes(b"ACGT\n>r0\nACGT\n"))
        # ...also when the stray data hides behind a valid first record
        with pytest.raises(InvalidReadError):
            list(iter_sequence_records_bytes(b"@r0\nACGT\n+\nIIII\nACGT\n"))


# ---------------------------------------------------------- server survival


@pytest.fixture(scope="module")
def live_server():
    genomes = GenomeSimulator(seed=7).simulate_collection(2, 1, 3000)
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    references = [
        (g.name, g.scaffolds[0], taxa.target_taxon[i])
        for i, g in enumerate(genomes)
    ]
    mc = MetaCache.ephemeral(references, taxonomy, params=MetaCacheParams.small())
    session = mc.session()
    server = ClassificationServer(session, port=0)
    with ServerThread(server):
        yield server
    session.close()
    mc.close()


def test_server_survives_fuzzed_bodies(live_server):
    """Mutated bodies: clean HTTP status every time, no hang, no 500."""
    import http.client

    conn = http.client.HTTPConnection(
        live_server.host, live_server.port, timeout=30
    )
    try:
        for seed in range(40):
            rng = random.Random(5000 + seed)
            base = _base_fasta() if seed % 2 == 0 else _base_fastq()
            body = _mutate(base, rng)
            conn.request("POST", "/classify", body=body)
            resp = conn.getresponse()
            resp.read()
            assert resp.status in (200, 400, 413), (seed, resp.status)
        conn.request("GET", "/healthz")  # still alive afterwards
        resp = conn.getresponse()
        assert resp.status == 200
        resp.read()
    finally:
        conn.close()
