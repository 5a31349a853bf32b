"""Pluggable result sinks: where classification records go.

A :class:`Sink` consumes :class:`~repro.api.records.ReadClassification`
records one at a time, or -- the built-in sinks -- a batch at a time
straight from its :class:`~repro.api.records.ClassificationColumns`;
either way the streaming query path never has to hold a whole run's
output in memory.  Three wire formats ship built in:

- ``tsv``    -- the classic MetaCache per-read table (byte-identical
  to what the CLI always printed);
- ``jsonl``  -- one JSON object per read, lossless round-trip;
- ``kraken`` -- Kraken-style ``C/U <read> <taxid> <length> <hits>``.

plus :class:`CollectSink` which just gathers records in memory.  New
formats register with :func:`register_sink` and become available to
``open_sink`` and hence the CLI's ``--format`` flag.
"""

from __future__ import annotations

import collections
import io
import json
import os
from typing import Any, Callable, Iterable, Iterator, Protocol, Self, runtime_checkable

from repro.api.records import ClassificationColumns, ReadClassification, record_fields
from repro.errors import UnknownFormatError

__all__ = [
    "Sink",
    "TextSink",
    "TsvSink",
    "JsonlSink",
    "KrakenSink",
    "CollectSink",
    "open_sink",
    "write_records",
    "register_sink",
    "sink_formats",
    "read_tsv",
    "read_jsonl",
    "read_kraken",
]


@runtime_checkable
class Sink(Protocol):
    """Anything that can consume classification records.

    Lifecycle: ``start()`` once, ``write()`` per record, ``finish()``
    once (context-manager use does this automatically, closing only
    handles the sink itself opened).  ``write_all(records)`` is
    optional: see :func:`write_records`.
    """

    def start(self) -> None: ...

    def write(self, record: ReadClassification) -> None: ...

    def finish(self) -> None: ...


def write_records(sink: Sink, records: Iterable[ReadClassification]) -> None:
    """Hand one batch to ``sink``: through its ``write_all`` when it
    has one, else record by record through the protocol's ``write``."""
    write_all = getattr(sink, "write_all", None)
    if write_all is not None:
        write_all(records)
    else:
        collections.deque(map(sink.write, records), maxlen=0)


class _SinkBase:
    """Shared lifecycle plumbing (context manager)."""

    def start(self) -> None:  # pragma: no cover - trivial default
        pass

    def finish(self) -> None:  # pragma: no cover - trivial default
        pass

    def write(self, record: ReadClassification) -> None:
        raise NotImplementedError

    def write_all(self, records: Iterable[ReadClassification]) -> int:
        """Write every record through :meth:`write`; returns how many."""
        return sum(1 for _ in map(self.write, records))

    def __enter__(self) -> Self:
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.finish()


class CollectSink(_SinkBase):
    """Gathers records in memory -- the default for tests and notebooks."""

    def __init__(self) -> None:
        self.records: list[ReadClassification] = []

    def write(self, record: ReadClassification) -> None:
        """Append one record to :attr:`records`."""
        self.records.append(record)


class TextSink(_SinkBase):
    """Base for line-oriented sinks writing to a path or open handle.

    A path (str/PathLike) is opened at ``start()`` and closed at
    ``finish()``; an already-open handle (e.g. ``sys.stdout``) is
    written to but never closed.  A format is one method,
    :meth:`format_row`, behind both :meth:`write` and :meth:`write_all`.
    """

    def __init__(self, dest: str | os.PathLike | io.TextIOBase) -> None:
        self._dest = dest
        self._handle: io.TextIOBase | None = None
        self._owns_handle = False
        self.n_written = 0

    def start(self) -> None:
        """Open the destination (if a path) and emit the header line."""
        if self._handle is not None:
            return
        if isinstance(self._dest, (str, os.PathLike)):
            self._handle = open(self._dest, "w", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = self._dest
        header = self.header_line()
        if header is not None:
            self._handle.write(header + "\n")

    def finish(self) -> None:
        """Close the destination if this sink opened it (idempotent)."""
        if self._handle is not None and self._owns_handle:
            self._handle.close()
        self._handle = None
        self._owns_handle = False

    def write(self, record: ReadClassification) -> None:
        """Format and write one record (auto-starts on first write)."""
        if self._handle is None:
            self.start()
        self._handle.write(self.format_row(record_fields(record)) + "\n")
        self.n_written += 1

    def write_all(self, records: Iterable[ReadClassification]) -> int:
        """Format a batch and write it with one call; returns rows written.

        :class:`ClassificationColumns` render from their columns, no
        record built; any other iterable through each record's fields.
        """
        if self._handle is None:
            self.start()
        if isinstance(records, ClassificationColumns):
            rows = records.rows()
        else:
            rows = map(record_fields, records)
        lines = [self.format_row(row) for row in rows]
        if lines:
            self._handle.write("\n".join(lines) + "\n")
        self.n_written += len(lines)
        return len(lines)

    # -- format hooks ---------------------------------------------------
    def header_line(self) -> str | None:
        """Optional first line of the output (``None`` = no header)."""
        return None

    def format_row(self, row: tuple[Any, ...]) -> str:
        """Render one record, given as the tuple of its fields in
        :class:`ReadClassification` order, as one line (subclass hook)."""
        raise NotImplementedError


class TsvSink(TextSink):
    """The classic per-read TSV table the CLI has always produced."""

    COLUMNS = ("read", "taxon_id", "taxon_name", "rank", "score", "target",
               "window_range")

    def header_line(self) -> str:
        """The tab-joined column header row."""
        return "\t".join(self.COLUMNS)

    def format_row(self, row: tuple[Any, ...]) -> str:
        """One TSV row; unclassified reads get the sentinel columns."""
        header, taxon_id, taxon_name, rank, score, target, first, last, _ = row
        if not taxon_id:
            return f"{header}\t0\tunclassified\t-\t0\t-\t-"
        return (
            f"{header}\t{taxon_id}\t{taxon_name}\t{rank}\t{score}\t"
            f"{target}\t[{first},{last}]"
        )


class JsonlSink(TextSink):
    """One JSON object per read; the only fully lossless text format."""

    KEYS = ("read", "taxon_id", "taxon_name", "rank", "score", "target",
            "window_first", "window_last", "read_length")

    def format_row(self, row: tuple[Any, ...]) -> str:
        """One compact JSON object per line, every field preserved."""
        return json.dumps(dict(zip(self.KEYS, row)), separators=(",", ":"))


class KrakenSink(TextSink):
    """Kraken-style output: ``C/U  read  taxid  length  taxid:score``."""

    def format_row(self, row: tuple[Any, ...]) -> str:
        """One Kraken-style row (``C/U  read  taxid  length  hits``)."""
        header, taxon_id, _, _, score, _, _, _, length = row
        if not taxon_id:
            return f"U\t{header}\t0\t{length}\t0:0"
        return f"C\t{header}\t{taxon_id}\t{length}\t{taxon_id}:{score}"


_REGISTRY: dict[str, Callable[..., TextSink]] = {}


def register_sink(name: str, factory: Callable[..., TextSink]) -> None:
    """Register a sink factory under a format name (used by ``--format``)."""
    _REGISTRY[name.lower()] = factory


register_sink("tsv", TsvSink)
register_sink("jsonl", JsonlSink)
register_sink("kraken", KrakenSink)


def sink_formats() -> list[str]:
    """Names accepted by :func:`open_sink` (and the CLI's ``--format``)."""
    return sorted(_REGISTRY)


def open_sink(fmt: str, dest: str | os.PathLike | io.TextIOBase) -> TextSink:
    """Create a sink for a named format writing to ``dest``."""
    try:
        factory = _REGISTRY[fmt.lower()]
    except KeyError:
        raise UnknownFormatError(
            f"unknown output format {fmt!r} (choose from {', '.join(sink_formats())})"
        ) from None
    return factory(dest)


# -- readers (round-trip support) ---------------------------------------


def _lines_of(source: str | os.PathLike | io.TextIOBase | Iterable[str]) -> Iterator[str]:
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            yield from fh
    else:
        yield from source


def read_tsv(
    source: str | os.PathLike | io.TextIOBase | Iterable[str],
) -> list[ReadClassification]:
    """Parse TsvSink output back into records (read_length is not stored)."""
    records = []
    for i, line in enumerate(_lines_of(source)):
        line = line.rstrip("\n")
        if not line or (i == 0 and line.startswith("read\t")):
            continue
        header, taxon_id, name, rank, score, target, windows = line.split("\t")
        if int(taxon_id) == 0:
            records.append(ReadClassification.unclassified(header))
            continue
        first, last = windows.strip("[]").split(",")
        records.append(
            ReadClassification(
                header=header,
                taxon_id=int(taxon_id),
                taxon_name=name,
                rank=rank,
                score=int(score),
                target=int(target),
                window_first=int(first),
                window_last=int(last),
            )
        )
    return records


def read_jsonl(
    source: str | os.PathLike | io.TextIOBase | Iterable[str],
) -> list[ReadClassification]:
    """Parse JsonlSink output back into records (lossless)."""
    records = []
    for line in _lines_of(source):
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        obj.setdefault("read_length", 0)
        records.append(ReadClassification(*(obj[key] for key in JsonlSink.KEYS)))
    return records


def read_kraken(
    source: str | os.PathLike | io.TextIOBase | Iterable[str],
) -> list[tuple[str, str, int, int, int]]:
    """Parse KrakenSink output into (status, read, taxid, length, score)."""
    rows = []
    for line in _lines_of(source):
        line = line.rstrip("\n")
        if not line:
            continue
        status, header, taxid, length, hits = line.split("\t")
        score = int(hits.rpartition(":")[2])
        rows.append((status, header, int(taxid), int(length), score))
    return rows
