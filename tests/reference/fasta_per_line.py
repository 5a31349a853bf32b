"""The per-line FASTA parser, kept verbatim as the oracle.

Until FASTA was parsed a chunk at a time
(:mod:`repro.genomics.fasta`), :func:`read_fasta` walked a text handle
line by line: ``rstrip`` of the line end, blank lines skipped, a ``>``
line opening a record (header ``str.strip``'d), every other line
``str.strip``'d and appended.  Text handles open with universal
newlines, so a lone ``\\r`` ends a line too.  The function below is that
code, moved out of ``src/`` unchanged; the per-record build producer
that called it is kept as :func:`per_record_fasta_ingest`.
``tests/test_fasta_blocks.py`` asserts that the block parser yields the
same records with the same errors, and ``tests/test_build_equivalence.py``
ingests FASTA files through :func:`per_record_fasta_ingest` in its
oracle builder.
"""

from __future__ import annotations

import io
import os
from typing import Iterator, Mapping, Sequence

from repro.core.build import accession_of
from repro.errors import BuildError, InvalidReadError
from repro.genomics.alphabet import encode_sequence
from repro.genomics.fasta import FastaRecord

__all__ = ["read_fasta", "per_record_fasta_ingest"]


def read_fasta(source: str | os.PathLike | io.TextIOBase) -> Iterator[FastaRecord]:
    """Yield records from a FASTA file path or open text handle.

    Tolerates leading blank lines, Windows line endings and missing
    trailing newline.  Raises
    :class:`repro.errors.InvalidReadError` (a ``ValueError``
    subclass, so old ``except ValueError`` call sites keep working)
    on sequence data before the first header.
    """
    own = False
    if isinstance(source, (str, os.PathLike)):
        handle: io.TextIOBase = open(source, "r", encoding="ascii")
        own = True
    else:
        handle = source
    try:
        header: str | None = None
        chunks: list[str] = []
        for line in handle:
            line = line.rstrip("\r\n")
            if not line:
                continue
            if line.startswith(">"):
                if header is not None:
                    yield FastaRecord(header, "".join(chunks))
                header = line[1:].strip()
                chunks = []
            else:
                if header is None:
                    raise InvalidReadError(
                        "FASTA sequence data before first header"
                    )
                chunks.append(line.strip())
        if header is not None:
            yield FastaRecord(header, "".join(chunks))
    finally:
        if own:
            handle.close()


def per_record_fasta_ingest(
    builder, paths: Sequence, accession_to_taxon: Mapping[str, int]
) -> None:
    """What ``DatabaseBuilder.add_fasta`` did before blocks: each record
    parsed, encoded and handed to ``add_reference`` on its own, files in
    order.  Producer and consumer threads do not change what is ingested
    or in which order, so they are left out."""
    for path in paths:
        for record in read_fasta(path):
            acc = accession_of(record.header)
            if acc not in accession_to_taxon:
                raise BuildError(
                    f"{path}: accession {acc!r} of header {record.header!r} "
                    "not in accession_to_taxon mapping",
                    file=str(path),
                    header=record.header,
                )
            builder.add_reference(
                record.header,
                encode_sequence(record.sequence),
                accession_to_taxon[acc],
            )
