"""FASTA reading and writing: one chunked, bytes-level parser.

The build pipeline's producer thread parses reference genome files
into (header, sequence) pairs (Section 4.1); the query side reads
FASTA read files and request bodies through the same parser.
:func:`read_fasta_blocks` reads fixed-size chunks off a binary handle
and cuts records at the ``>`` that start lines, found by ``bytes.find``;
a record's sequence is its lines with the line ends deleted.  No
Python runs per line (unless a record's lines hold other whitespace,
which is stripped line by line), a record cut by a chunk boundary is
carried into the next chunk, and memory is bounded by a chunk plus the
longest record.
:func:`read_fasta` is its per-record view; the block views for builds
and queries live in :mod:`repro.pipeline.producer` and
:mod:`repro.genomics.io`.

The grammar is that of a line walk over a text handle opened with
universal newlines (``\r\n``, ``\r`` and ``\n`` all end a line):
blank lines are skipped, a line starting with ``>`` opens a record
whose header is the rest of the line, every other line is sequence,
and header and sequence lines are stripped of ASCII whitespace at both
ends as ``str.strip`` strips them (whitespace inside a line stays).
Sequence data before the first header raises
:class:`repro.errors.InvalidReadError`, a byte outside ASCII
``UnicodeDecodeError``.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.errors import InvalidReadError

__all__ = ["FastaRecord", "read_fasta", "read_fasta_blocks", "write_fasta"]

#: bytes read off the handle per chunk
CHUNK_BYTES = 1 << 16

# what str.strip() strips from ASCII text
_WHITESPACE = b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"
# the same less the line end, byte by byte: a body holding none of these
# is stripped by deleting its line ends
_INNER_WHITESPACE = [bytes([c]) for c in _WHITESPACE if c not in b"\n\r"]
_NEWLINE, _GT = ord("\n"), ord(">")


@dataclass(frozen=True)
class FastaRecord:
    """One FASTA entry: full header line (sans '>') and sequence string."""

    header: str
    sequence: str

    @property
    def accession(self) -> str:
        """First whitespace-delimited token of the header.

        MetaCache extracts the genomic identifier from the header to
        link the target to the taxonomy (Section 4.1); we use the
        leading token as that identifier.
        """
        return self.header.split()[0] if self.header.split() else ""


def _line_start_gt(data: bytes, start: int, stop: int, before: int) -> int:
    """Index of the last ``>`` in ``data[start:stop]`` that starts a line,
    or -1; ``before`` is the byte ahead of ``data[0]``.

    Searches for ``>`` alone, which outside headers is rare, rather than
    for ``\\n>``, whose first byte ends every line.
    """
    at = data.rfind(b">", start, stop)
    while at >= 0 and (data[at - 1] if at else before) != _NEWLINE:
        at = data.rfind(b">", start, at)
    return at


def _record_runs(read: Callable[[int], bytes]) -> Iterator[bytes]:
    """Whole records, a run of them per chunk read, each run without the
    ``>`` of its first header and with every ``\\r`` turned into ``\\n``.

    A run ends right before the last header of the chunks read so far;
    what follows is held until a later chunk (or the end of the input)
    completes it.
    """
    held: list[bytes] = []
    before = -1  # the byte ahead of the chunk; -1 until a header is seen
    while chunk := read(CHUNK_BYTES):
        if not chunk.isascii():
            chunk.decode("ascii")  # raises UnicodeDecodeError at the byte
        if b"\r" in chunk:
            chunk = chunk.replace(b"\r", b"\n")
        if before < 0:  # no header yet: blank lines only, then '>'
            chunk = chunk.lstrip(b"\n")
            if not chunk:
                continue
            if chunk[0] != _GT:
                raise InvalidReadError("FASTA sequence data before first header")
            chunk, before = chunk[1:], _GT
            if not chunk:
                continue
        cut = _line_start_gt(chunk, 0, len(chunk), before)
        before = chunk[-1]
        if cut < 0:
            held.append(chunk)
            continue
        held.append(chunk[:cut])
        yield b"".join(held)
        held = [chunk[cut + 1 :]]
    if before >= 0:
        yield b"".join(held)


def _parse_run(run: bytes) -> tuple[list[str], list[bytes]]:
    """Headers and sequences of a run from :func:`_record_runs`."""
    headers: list[str] = []
    sequences: list[bytes] = []
    start, size = 0, len(run)
    while start <= size:
        # the record's end: the next '>' that starts a line (a '>' at
        # ``start`` is header text)
        stop = run.find(b">", start + 1)
        while stop >= 0 and run[stop - 1] != _NEWLINE:
            stop = run.find(b">", stop + 1)
        if stop < 0:
            stop = size
        end = run.find(b"\n", start, stop)
        if end < 0:
            end = stop
        headers.append(run[start:end].strip(_WHITESPACE).decode("ascii"))
        body = run[end + 1 : stop]
        if any(c in body for c in _INNER_WHITESPACE):
            body = b"".join(line.strip(_WHITESPACE) for line in body.split(b"\n"))
        else:
            body = body.replace(b"\n", b"")
        sequences.append(body)
        start = stop + 1
    return headers, sequences


def read_fasta_blocks(
    handle: io.RawIOBase | io.BufferedIOBase,
) -> Iterator[tuple[list[str], list[bytes]]]:
    """Parse a binary FASTA stream: ``(headers, sequences)`` per chunk.

    Each block holds the records the chunks read so far complete, in
    input order; sequences are ASCII bytes, stripped and joined.  Block
    sizes follow the input, not the caller: views that need blocks of
    a given shape regroup (see the module docstring).
    """
    for run in _record_runs(handle.read):
        yield _parse_run(run)


def read_fasta(source: str | os.PathLike | io.TextIOBase) -> Iterator[FastaRecord]:
    """Yield records from a FASTA file path or open text handle.

    The per-record view of :func:`read_fasta_blocks`.  Tolerates
    leading blank lines, Windows line endings and missing trailing
    newline.  Raises :class:`repro.errors.InvalidReadError` (a
    ``ValueError`` subclass, so old ``except ValueError`` call sites
    keep working) on sequence data before the first header.
    """
    if not isinstance(source, (str, os.PathLike)):
        text = source
        yield from _records(_record_runs(lambda n: text.read(n).encode("ascii")))
        return
    with open(source, "rb") as handle:
        yield from _records(_record_runs(handle.read))


def _records(runs: Iterable[bytes]) -> Iterator[FastaRecord]:
    for headers, sequences in map(_parse_run, runs):
        for header, sequence in zip(headers, sequences):
            yield FastaRecord(header, sequence.decode("ascii"))


def write_fasta(
    records: Iterable[FastaRecord | tuple[str, str]],
    dest: str | os.PathLike | io.TextIOBase,
    line_width: int = 80,
) -> int:
    """Write records to a FASTA file; returns the number written.

    Accepts either :class:`FastaRecord` objects or plain
    ``(header, sequence)`` tuples.
    """
    own = False
    if isinstance(dest, (str, os.PathLike)):
        handle: io.TextIOBase = open(dest, "w", encoding="ascii")
        own = True
    else:
        handle = dest
    count = 0
    try:
        for rec in records:
            if isinstance(rec, tuple):
                header, seq = rec
            else:
                header, seq = rec.header, rec.sequence
            handle.write(f">{header}\n")
            for i in range(0, len(seq), line_width):
                handle.write(seq[i : i + line_width])
                handle.write("\n")
            count += 1
    finally:
        if own:
            handle.close()
    return count
