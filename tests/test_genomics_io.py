"""Tests for FASTA/FASTQ IO."""

import io

import pytest

from reference.per_read_io import read_fastq
from repro.genomics.fasta import FastaRecord, read_fasta, write_fasta
from repro.genomics.fastq import FastqRecord, write_fastq
from repro.genomics.io import iter_sequence_records


class TestFasta:
    def test_roundtrip_file(self, tmp_path):
        records = [
            FastaRecord("seq1 first genome", "ACGT" * 30),
            FastaRecord("seq2", "TTTT"),
        ]
        path = tmp_path / "x.fasta"
        assert write_fasta(records, path) == 2
        back = list(read_fasta(path))
        assert back == records

    def test_line_wrapping(self):
        buf = io.StringIO()
        write_fasta([("h", "A" * 100)], buf, line_width=30)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ">h"
        assert [len(l) for l in lines[1:]] == [30, 30, 30, 10]

    def test_multiline_and_crlf(self):
        text = ">a desc\r\nACGT\r\nTTAA\r\n>b\r\nGG\r\n"
        recs = list(read_fasta(io.StringIO(text)))
        assert recs[0].sequence == "ACGTTTAA"
        assert recs[0].header == "a desc"
        assert recs[0].accession == "a"
        assert recs[1].sequence == "GG"

    def test_data_before_header_raises(self):
        with pytest.raises(ValueError):
            list(read_fasta(io.StringIO("ACGT\n>a\nACGT\n")))

    def test_empty_file(self):
        assert list(read_fasta(io.StringIO(""))) == []

    def test_accession_of_empty_header(self):
        assert FastaRecord("", "ACGT").accession == ""


class TestFastq:
    def test_roundtrip(self, tmp_path):
        """What ``write_fastq`` writes, qualities included, reads back
        through the line-walking oracle (the program drops qualities)."""
        records = [
            FastqRecord("r1", "ACGT", "IIII"),
            FastqRecord("r2 extra", "GG", "!!"),
        ]
        path = tmp_path / "x.fastq"
        assert write_fastq(records, path) == 2
        assert list(read_fastq(path)) == records
        assert list(iter_sequence_records(path)) == [
            ("r1", "ACGT"), ("r2 extra", "GG")
        ]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FastqRecord("r", "ACGT", "II")

    def test_malformed_sigil(self, tmp_path):
        path = tmp_path / "x.fastq"
        path.write_text("@r0\nAC\n+\nII\nnotfastq\nACGT\n+\nIIII\n")
        with pytest.raises(ValueError, match="expected '@' header"):
            list(iter_sequence_records(path))

    def test_truncated_record(self, tmp_path):
        path = tmp_path / "x.fastq"
        path.write_text("@r\nACGT\n+\nII")
        with pytest.raises(ValueError, match="truncated FASTQ record"):
            list(iter_sequence_records(path))

    def test_empty(self, tmp_path):
        path = tmp_path / "x.fastq"
        path.write_text("")
        assert list(iter_sequence_records(path)) == []
