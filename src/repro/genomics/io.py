"""Format-sniffing sequence input: FASTA or FASTQ, plain or gzip'd.

The CLI, the :mod:`repro.api` facade, and the classification server
all accept "some reads" without asking the caller to name the format.
This module owns that sniffing: the container (gzip magic bytes) and
the record format (``>`` vs ``@`` sigil) are detected from the
content itself, empty input yields zero reads, and *any* malformed
input -- wrong sigil, truncated gzip member, non-ASCII bytes,
truncated final FASTQ record -- raises
:class:`repro.errors.InvalidReadError`, never a bare ``EOFError`` /
``UnicodeDecodeError`` / ``zlib.error``.  Servers and pipelines can
therefore wrap ingest in a single ``except MetaCacheError``.

Four entry points share the machinery, all over one *binary* handle
(plain file, gzip stream or in-memory body alike):

- :func:`iter_sequence_blocks` streams a file ``batch_size`` reads at
  a time as header and sequence-line lists (the query pipeline's
  producer packs these without touching a read in Python;
  multi-gigabyte files never need to fit in memory);
- :func:`read_sequence_lines_bytes` is the same for an in-memory
  buffer, whole (the server's ``POST /classify`` request bodies);
- :func:`iter_sequence_records` is the per-record view of a file;
- :func:`iter_sequence_records_bytes` the per-record view of an
  in-memory buffer.
"""

from __future__ import annotations

import gzip
import io
import itertools
import os
import zlib
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.errors import InvalidReadError
from repro.genomics.alphabet import encode_sequence
from repro.genomics.fasta import FastaRecord, read_fasta
from repro.genomics.fastq import read_fastq_blocks, split_lines

__all__ = [
    "open_sequence_file",
    "iter_sequence_blocks",
    "iter_sequence_records",
    "iter_sequence_records_bytes",
    "read_sequence_lines_bytes",
    "read_sequences",
]

_GZIP_MAGIC = b"\x1f\x8b"


@contextmanager
def _translate_parse_errors(name: str):
    """Turn raw parser/decompressor failures into ``InvalidReadError``.

    The FASTA/FASTQ parsers already raise the typed error; this guard
    catches what they cannot see -- a gzip member cut short
    (``EOFError``), corrupt deflate data (``zlib.error`` /
    ``gzip.BadGzipFile``), bytes outside ASCII
    (``UnicodeDecodeError``) -- and re-raises each as
    ``InvalidReadError`` naming the input.  ``FileNotFoundError`` and
    other genuine I/O errors pass through untouched: a missing file
    is an environment problem, not malformed read data.
    """
    try:
        yield
    except InvalidReadError:
        raise
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
        raise InvalidReadError(
            f"{name}: corrupt or truncated gzip data ({exc})"
        ) from exc
    except UnicodeDecodeError as exc:
        raise InvalidReadError(
            f"{name}: not a text sequence file ({exc})"
        ) from exc
    except ValueError as exc:
        raise InvalidReadError(f"{name}: {exc}") from exc


@contextmanager
def open_sequence_file(path: str | os.PathLike) -> Iterator[io.BufferedReader]:
    """Open a (possibly gzip'd) sequence file as one binary stream.

    Compression is detected from the magic bytes, not the file name,
    so ``reads.fastq`` and ``reads.fastq.gz`` both just work -- by
    ``peek`` on the one handle, never a second ``open`` or a ``seek``,
    so ``/dev/stdin``, a FIFO or ``<(zcat reads.fq.gz)`` work too.
    """
    with open(path, "rb") as raw:
        if raw.peek(2)[:2] != _GZIP_MAGIC:
            yield raw
        else:
            with gzip.GzipFile(fileobj=raw) as inflated:
                # buffered: C-level line iteration, and peek for the sniff
                yield io.BufferedReader(inflated)  # type: ignore[arg-type]


def _sniff(handle: io.BufferedReader, name: str) -> str:
    """The record sigil (``>``, ``@``; ``""`` for empty input), unconsumed.

    The format is sniffed from the first non-blank character.  Blank
    lines only are skipped: the record parsers tolerate those too, so
    sniff and parse agree.  Any other leading whitespace (a line of
    spaces) would be rejected downstream with a confusing message, so
    it is called out as not-a-sequence-file right here.
    """
    first = handle.peek(1)[:1]
    while first in (b"\n", b"\r"):
        handle.read(1)
        first = handle.peek(1)[:1]
    sigil = first.decode("ascii")
    if sigil not in ("", ">", "@"):
        raise InvalidReadError(
            f"{name}: neither FASTA nor FASTQ (starts with {sigil!r})"
        )
    return sigil


def _fasta_records(handle: io.BufferedReader) -> Iterator[FastaRecord]:
    return read_fasta(io.TextIOWrapper(handle, encoding="ascii"))


def _sniffed_records(
    handle: io.BufferedReader, name: str
) -> Iterator[tuple[str, str]]:
    """Per-record view of an open stream, FASTA or FASTQ.

    Shared by the file and in-memory entry points so their accepted
    grammar cannot diverge; empty input yields nothing.
    """
    sigil = _sniff(handle, name)
    if sigil == ">":
        yield from ((fa.header, fa.sequence) for fa in _fasta_records(handle))
    elif sigil == "@":
        blocks = read_fastq_blocks(handle)
        for block in blocks:
            yield from zip(block.headers, split_lines(block.sequences))


def _sniffed_blocks(
    handle: io.BufferedReader, name: str, batch_size: int = 4096
) -> Iterator[tuple[list[str], list[bytes]]]:
    """Block view of an open stream: ``(headers, sequence lines)``.

    The bulk counterpart of :func:`_sniffed_records` (same sniffing,
    same errors): each sequence is one ASCII line still ending in
    ``\\n``, ready to be joined and encoded once per batch.  FASTQ
    blocks come straight from
    :func:`repro.genomics.fastq.read_fastq_blocks`; FASTA is still
    parsed per record underneath.
    """
    sigil = _sniff(handle, name)
    if sigil == ">":
        entries = _fasta_records(handle)
        while chunk := list(itertools.islice(entries, batch_size)):
            yield (
                [fa.header for fa in chunk],
                [fa.sequence.encode("ascii") + b"\n" for fa in chunk],
            )
    elif sigil == "@":
        blocks = read_fastq_blocks(handle, batch_size)
        for block in blocks:
            yield block.headers, block.sequences


def iter_sequence_blocks(
    path: str | os.PathLike, batch_size: int
) -> Iterator[tuple[list[str], list[bytes]]]:
    """Yield ``(headers, sequence lines)`` for ``batch_size`` reads at a time.

    The query pipeline's producer feeds these to
    :meth:`repro.pipeline.packed.PackedReads.from_lines`; sniffing and
    errors are those of :func:`iter_sequence_records`.
    """
    with _translate_parse_errors(str(path)), open_sequence_file(path) as handle:
        yield from _sniffed_blocks(handle, str(path), batch_size)


def iter_sequence_records(path: str | os.PathLike) -> Iterator[tuple[str, str]]:
    """Lazily yield ``(header, sequence)`` pairs from a FASTA/FASTQ file.

    The format is sniffed from the first non-whitespace character of
    the (decompressed) content; an empty file yields nothing.  This is
    the streaming primitive -- multi-gigabyte read files never need to
    fit in memory (the API's ``classify_iter`` batches on top of it).
    Malformed content of any kind raises
    :class:`repro.errors.InvalidReadError` naming the path; a missing
    file still raises ``FileNotFoundError``.
    """
    with _translate_parse_errors(str(path)), open_sequence_file(path) as handle:
        yield from _sniffed_records(handle, str(path))


def _bounded_gunzip(data: bytes, limit: int | None, name: str) -> bytes:
    """Decompress gzip bytes, refusing to inflate past ``limit``.

    Decompression happens in chunks through ``zlib.decompressobj`` so
    a gzip bomb (a small compressed payload hiding a huge plaintext)
    is rejected after at most ``limit`` bytes of output instead of
    materializing gigabytes from one request.  Servers pass their
    body bound here; ``limit=None`` keeps the trusting behaviour for
    local callers.
    """
    if limit is None:
        return gzip.decompress(data)
    chunks: list[bytes] = []
    total = 0
    view = memoryview(data)
    n = len(data)
    offset = 0
    max_feed = 65536
    # A gzip file is one or more back-to-back members (bgzip and
    # bcl2fastq emit many; `cat a.fq.gz b.fq.gz` too), so decompress
    # member after member -- matching gzip.decompress -- carrying the
    # running total against the limit across all of them.  Input is
    # fed in windows tracked by offset (handing the whole remaining
    # buffer to the decompressor would copy it back out via
    # unused_data at every member boundary), and each member's first
    # window starts small and grows geometrically, so a flood of tiny
    # members costs O(member size) each rather than a full window of
    # copying per member.
    while offset < n:
        # wbits=47 = zlib's "gzip container, max window" mode
        stream = zlib.decompressobj(wbits=47)
        buf: bytes | memoryview = b""
        feed = 512
        while not stream.eof:
            if not len(buf):
                if offset >= n:
                    break  # more input needed but none left: truncated
                buf = view[offset : offset + feed]
                offset += len(buf)
                feed = min(feed * 2, max_feed)
            chunk = stream.decompress(buf, max(1, limit - total + 1))
            buf = stream.unconsumed_tail
            total += len(chunk)
            if total > limit:
                raise InvalidReadError(
                    f"{name}: gzip payload inflates past the "
                    f"{limit}-byte bound"
                )
            chunks.append(chunk)
        if not stream.eof:
            raise InvalidReadError(
                f"{name}: corrupt or truncated gzip data "
                "(stream ended before the end-of-stream marker)"
            )
        offset -= len(stream.unused_data)  # unfed + unused = data[offset:]
        # skip zero padding between and after members (the gzip
        # module's semantics); the single-byte probe keeps the
        # unpadded common case copy-free
        while offset < n and data[offset] == 0:
            window = bytes(view[offset : offset + max_feed])
            stripped = window.lstrip(b"\x00")
            offset += len(window) - len(stripped)
            if stripped:
                break
        if offset < n and bytes(view[offset : offset + 2]) != _GZIP_MAGIC:
            raise InvalidReadError(
                f"{name}: trailing garbage after gzip end-of-stream marker"
            )
    return b"".join(chunks)


def _bytes_handle(
    data: bytes, name: str, max_decompressed_bytes: int | None
) -> io.BufferedReader:
    """An in-memory buffer (plain or gzip, sniffed by magic) as a stream."""
    if data[:2] == _GZIP_MAGIC:
        data = _bounded_gunzip(data, max_decompressed_bytes, name)
    return io.BufferedReader(io.BytesIO(data))  # type: ignore[arg-type]


def iter_sequence_records_bytes(
    data: bytes,
    *,
    name: str = "<request body>",
    max_decompressed_bytes: int | None = None,
) -> Iterator[tuple[str, str]]:
    """Lazily yield ``(header, sequence)`` pairs from an in-memory buffer.

    FASTA or FASTQ, plain or a gzip'd payload (sniffed by magic
    bytes, exactly like the file path).  Empty input yields nothing;
    malformed input raises :class:`repro.errors.InvalidReadError`
    carrying ``name``.

    ``max_decompressed_bytes`` bounds how far a gzip payload may
    inflate (untrusted input: a request-size limit alone does not
    bound the plaintext of a compressed body); exceeding it raises
    :class:`repro.errors.InvalidReadError`.
    """
    with _translate_parse_errors(name):
        handle = _bytes_handle(data, name, max_decompressed_bytes)
        yield from _sniffed_records(handle, name)


def read_sequence_lines_bytes(
    data: bytes,
    *,
    name: str = "<request body>",
    max_decompressed_bytes: int | None = None,
) -> tuple[list[str], list[bytes]]:
    """An in-memory buffer's reads as ``(headers, sequence lines)``.

    The server's ingest path: a ``POST /classify`` body arrives as
    bytes and leaves as the block :func:`iter_sequence_blocks` would
    yield for a file holding it, all reads at once.  Grammar, errors
    and ``max_decompressed_bytes`` are those of
    :func:`iter_sequence_records_bytes`.
    """
    headers: list[str] = []
    lines: list[bytes] = []
    with _translate_parse_errors(name):
        handle = _bytes_handle(data, name, max_decompressed_bytes)
        for block_headers, block_lines in _sniffed_blocks(handle, name):
            headers += block_headers
            lines += block_lines
    return headers, lines


def read_sequences(path: str | os.PathLike) -> tuple[list[str], list[np.ndarray]]:
    """Load a whole FASTA/FASTQ file as (headers, encoded sequences).

    Eager counterpart of :func:`iter_sequence_records`; the former
    ``repro.cli._read_sequences`` with gzip support added.
    """
    headers: list[str] = []
    seqs: list[np.ndarray] = []
    for header, seq in iter_sequence_records(path):
        headers.append(header)
        seqs.append(encode_sequence(seq))
    return headers, seqs
