"""The per-read host side (parse, records, rows), kept verbatim as the oracle.

Before the columnar rewrite every read cost four ``readline()`` calls
and a ``FastqRecord`` on the way in, and a ``ReadClassification`` plus
one f-string and one ``write`` on the way out.  These functions are
that code, moved out of ``src/`` unchanged -- the line-walking
``read_fastq``, the ``records_from_classification`` loop and the three
``format_record`` bodies -- importing from the rewritten modules only
their dataclasses.  ``tests/test_columnar_equivalence.py`` asserts the
block parser (:func:`repro.genomics.fastq.read_fastq_blocks`) accepts
the same grammar with the same errors, and that every sink's bulk
``write_all`` writes the same bytes.
"""

from __future__ import annotations

import io
import json
import os
from typing import Iterator

import numpy as np

from repro.api.records import ReadClassification
from repro.errors import InvalidReadError
from repro.genomics.fastq import FastqRecord

__all__ = [
    "read_fastq",
    "records_from_classification",
    "format_tsv",
    "format_jsonl",
    "format_kraken",
    "ROW_FORMATS",
]


def read_fastq(source: str | os.PathLike | io.TextIOBase) -> Iterator[FastqRecord]:
    """Yield records from a FASTQ path or open handle.

    Strict 4-line format; raises
    :class:`repro.errors.InvalidReadError` (a ``ValueError``
    subclass, so old ``except ValueError`` call sites keep working)
    on malformed records (wrong sigil or truncated final record).
    """
    own = False
    if isinstance(source, (str, os.PathLike)):
        handle: io.TextIOBase = open(source, "r", encoding="ascii")
        own = True
    else:
        handle = source
    try:
        while True:
            head = handle.readline()
            if not head:
                return
            head = head.rstrip("\r\n")
            if not head:
                continue
            if not head.startswith("@"):
                raise InvalidReadError(
                    f"expected '@' header, got: {head[:40]!r}"
                )
            seq = handle.readline().rstrip("\r\n")
            plus = handle.readline().rstrip("\r\n")
            qual = handle.readline().rstrip("\r\n")
            if not plus.startswith("+"):
                raise InvalidReadError(
                    f"expected '+' separator, got: {plus[:40]!r}"
                )
            if len(qual) != len(seq):
                raise InvalidReadError(
                    f"truncated FASTQ record: {head[:40]!r}"
                )
            yield FastqRecord(head[1:].strip(), seq, qual)
    finally:
        if own:
            handle.close()


def records_from_classification(
    db,
    headers: list[str],
    classification,
    read_lengths: np.ndarray | None = None,
) -> list[ReadClassification]:
    """Resolve a vectorized Classification into per-read records."""
    records: list[ReadClassification] = []
    taxa = classification.taxon
    for i, header in enumerate(headers):
        length = int(read_lengths[i]) if read_lengths is not None else 0
        taxon = int(taxa[i])
        if taxon == 0:
            records.append(ReadClassification.unclassified(header, length))
            continue
        records.append(
            ReadClassification(
                header=header,
                taxon_id=taxon,
                taxon_name=db.taxonomy.name_of(taxon),
                rank=db.lineages.rank_resolved(taxon).name.lower(),
                score=int(classification.top_score[i]),
                target=int(classification.best_target[i]),
                window_first=int(classification.best_window_first[i]),
                window_last=int(classification.best_window_last[i]),
                read_length=length,
            )
        )
    return records


def format_tsv(r: ReadClassification) -> str:
    """One TSV row; unclassified reads get the sentinel columns."""
    if not r.classified:
        return f"{r.header}\t0\tunclassified\t-\t0\t-\t-"
    return (
        f"{r.header}\t{r.taxon_id}\t{r.taxon_name}\t{r.rank}\t{r.score}\t"
        f"{r.target}\t[{r.window_first},{r.window_last}]"
    )


def format_jsonl(r: ReadClassification) -> str:
    """One compact JSON object per line, every field preserved."""
    return json.dumps(
        {
            "read": r.header,
            "taxon_id": r.taxon_id,
            "taxon_name": r.taxon_name,
            "rank": r.rank,
            "score": r.score,
            "target": r.target,
            "window_first": r.window_first,
            "window_last": r.window_last,
            "read_length": r.read_length,
        },
        separators=(",", ":"),
    )


def format_kraken(r: ReadClassification) -> str:
    """One Kraken-style row (``C/U  read  taxid  length  hits``)."""
    status = "C" if r.classified else "U"
    hits = f"{r.taxon_id}:{r.score}" if r.classified else "0:0"
    return f"{status}\t{r.header}\t{r.taxon_id}\t{r.read_length}\t{hits}"


#: sink format name -> the per-record row it used to write
ROW_FORMATS = {"tsv": format_tsv, "jsonl": format_jsonl, "kraken": format_kraken}
