"""FASTQ reading and writing (4-line records), a block of reads at a time.

KAL_D-style datasets are paired-end FASTQ; the query pipeline's
producer thread consumes these.  Quality strings are carried through
verbatim but the classifier itself never interprets them (neither
does MetaCache).

:func:`read_fastq_blocks` is the one parser: it pulls ``4 x
batch_size`` lines from a binary stream and describes them by stride
(every 4th line a header, a sequence, a ``+`` line, a quality string),
checking sigils and sequence/quality lengths as arrays.  A block the
stride view cannot describe (CR line ends, blank lines between
records, a final record cut short) is normalised first, so the
grammar is the one the line-walking parser it replaced defined (now
the oracle in ``tests/reference/per_read_io.py``).
:func:`read_fastq` is the per-record view over it.
"""

from __future__ import annotations

import io
import itertools
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from repro.errors import InvalidReadError

__all__ = [
    "FastqRecord",
    "FastqBlock",
    "read_fastq",
    "read_fastq_blocks",
    "split_lines",
    "write_fastq",
]


@dataclass(frozen=True)
class FastqRecord:
    """One FASTQ entry: id line (sans '@'), sequence, quality string."""

    header: str
    sequence: str
    quality: str

    def __post_init__(self) -> None:
        if len(self.sequence) != len(self.quality):
            raise InvalidReadError(
                f"sequence/quality length mismatch for '{self.header}': "
                f"{len(self.sequence)} vs {len(self.quality)}"
            )


class FastqBlock(NamedTuple):
    """Consecutive records as parallel lists, one entry per record.

    ``sequences`` and ``qualities`` are the file's own ASCII lines,
    each still ending in ``\\n``, to be joined once per block.
    """

    headers: list[str]
    sequences: list[bytes]
    qualities: list[bytes]


def _line_lengths(lines: list[bytes]) -> np.ndarray:
    return np.fromiter(map(len, lines), dtype=np.int64, count=len(lines))


def _first_bad_record(lines: list[bytes], text: bytes) -> int:
    """Index of the first record the stride view rejects, -1 for none
    (``lines``: ``\\n``-terminated, a multiple of 4; ``text``: their join)."""
    sizes = _line_lengths(lines)
    first = np.frombuffer(text, dtype=np.uint8)[np.cumsum(sizes) - sizes]
    bad = (
        (first[0::4] != ord("@"))
        | (first[2::4] != ord("+"))
        | (sizes[1::4] != sizes[3::4])
    )
    return int(bad.argmax()) if bad.any() else -1


def _normalised(text: bytes, at_eof: bool) -> list[bytes]:
    """Re-split a block the way the line-walking parser read it.

    Universal newlines (``\\r\\n`` and a lone ``\\r`` end a line), no
    blank line where a record would start, and at end of input the
    missing lines of a final record read as empty.  Every returned
    line ends in ``\\n`` and a record starts on every 4th.
    """
    lines = text.replace(b"\r\n", b"\n").replace(b"\r", b"\n").splitlines(True)
    blank = _line_lengths(lines) == 1
    gaps, inked = np.flatnonzero(blank), np.flatnonzero(~blank)
    gaps_by_phase = [gaps[gaps % 4 == phase] for phase in range(4)]
    kept: list[bytes] = []
    pos = 0
    while pos < len(lines):
        # records run from pos to the next blank line on their 4-line
        # grid; a new run starts on the next line with ink after it
        grid = gaps_by_phase[pos % 4]
        at = np.searchsorted(grid, pos)
        stop = int(grid[at]) if at < grid.size else len(lines)
        kept += lines[pos:stop]
        at = np.searchsorted(inked, stop)
        pos = int(inked[at]) if at < inked.size else len(lines)
    if at_eof:
        kept += [b"\n"] * (-len(kept) % 4)
    return kept


def _grammar_error(lines: list[bytes], bad: int) -> InvalidReadError:
    """The error the line-walking parser raised for record ``bad``."""
    head, plus = (lines[4 * bad + at][:-1].decode("ascii") for at in (0, 2))
    if not head.startswith("@"):
        return InvalidReadError(f"expected '@' header, got: {head[:40]!r}")
    if not plus.startswith("+"):
        return InvalidReadError(f"expected '+' separator, got: {plus[:40]!r}")
    return InvalidReadError(f"truncated FASTQ record: {head[:40]!r}")


def _take_block(
    source: Iterator[bytes], held: list[bytes], batch_size: int
) -> tuple[FastqBlock | None, list[bytes], bool]:
    """Pull and check one block: ``(block, lines still held, at end of input)``.

    ``held`` are lines pulled earlier but not yet yielded.  The block is
    ``None`` when nothing is left, or when dropped blank lines left it
    short of ``batch_size`` records and the input may hold more.
    """
    want = 4 * batch_size - len(held)
    pulled = list(itertools.islice(source, max(want, 0)))
    at_eof = len(pulled) < want
    lines = held + pulled
    if lines and not lines[-1].endswith(b"\n"):
        lines[-1] += b"\n"  # the input's last line, unterminated
    text = b"".join(lines)
    if not text.isascii():
        text.decode("ascii")  # raises, naming the byte
    whole = len(lines)
    if whole % 4 or b"\r" in text or _first_bad_record(lines, text) >= 0:
        lines = _normalised(text, at_eof)
        # a record begun at the end of the block waits for its lines
        whole = min(len(lines) - len(lines) % 4, 4 * batch_size)
        bad = _first_bad_record(lines[:whole], b"".join(lines[:whole]))
        if bad >= 0:
            raise _grammar_error(lines, bad)
    if not whole or (whole < 4 * batch_size and not at_eof):
        return None, lines, at_eof
    heads = b"".join(lines[0:whole:4]).decode("ascii")
    headers = list(map(str.strip, heads[1:-1].split("\n@")))
    block = FastqBlock(headers, lines[1:whole:4], lines[3:whole:4])
    return block, lines[whole:], at_eof


def read_fastq_blocks(
    handle: Iterable[bytes], batch_size: int = 4096
) -> Iterator[FastqBlock]:
    """Parse a binary FASTQ stream ``batch_size`` records at a time.

    Every block but the last holds exactly ``batch_size`` records (the
    default is the pipeline's batch size; the per-record views use it).
    Raises :class:`repro.errors.InvalidReadError` on a wrong sigil, a
    sequence/quality length mismatch or a truncated final record, and
    ``UnicodeDecodeError`` (a ``ValueError``) on a byte outside ASCII.
    """
    source, held, at_eof = iter(handle), [], False
    while held or not at_eof:
        # one call per block, so that a block's lines are released
        # while the consumer works on it
        block, held, at_eof = _take_block(source, held, batch_size)
        if block is not None:
            yield block


def split_lines(lines: list[bytes]) -> list[str]:
    """One string per ``\\n``-terminated ASCII line (terminator dropped)."""
    return b"".join(lines).decode("ascii").split("\n")[:-1]


def _records_of(handle: Iterable[bytes]) -> Iterator[FastqRecord]:
    blocks = read_fastq_blocks(handle)
    for block in blocks:
        yield from map(
            FastqRecord,
            block.headers,
            split_lines(block.sequences),
            split_lines(block.qualities),
        )


def read_fastq(source: str | os.PathLike | io.TextIOBase) -> Iterator[FastqRecord]:
    """Yield records from a FASTQ path or open text handle.

    The per-record view over :func:`read_fastq_blocks`.  Strict 4-line
    format; raises :class:`repro.errors.InvalidReadError` (a
    ``ValueError`` subclass, so old ``except ValueError`` call sites
    keep working) on malformed records (wrong sigil or truncated final
    record).
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as handle:
            yield from _records_of(handle)
    else:
        yield from _records_of(map(str.encode, source))


def write_fastq(
    records: Iterable[FastqRecord],
    dest: str | os.PathLike | io.TextIOBase,
) -> int:
    """Write records to a FASTQ file; returns the number written."""
    entries = [
        f"@{rec.header}\n{rec.sequence}\n+\n{rec.quality}\n" for rec in records
    ]
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w", encoding="ascii") as handle:
            handle.writelines(entries)
    else:
        dest.writelines(entries)
    return len(entries)
