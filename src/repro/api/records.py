"""Typed result records of the public API.

Everything a caller sees coming out of a classification run is one of
these dataclasses -- no poking into parallel numpy arrays by index.
A batch's records travel as :class:`ClassificationColumns`, a lazy
``Sequence[ReadClassification]`` that sinks render in bulk; a record
exists only once a caller indexes or iterates.  The raw vectorized objects
(:class:`repro.core.classify.Classification` and
:class:`repro.core.query.QueryResult`) remain reachable through
:class:`ClassificationRun` for numeric workflows that want arrays.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Iterator, Sequence, overload

import numpy as np

# BuildStats lives beside the builder (repro.core.builder) because the
# builder publishes snapshots of it while running; it is re-exported
# here because this module is the documented home of typed records.
from repro.core.builder import BuildStats

if TYPE_CHECKING:  # imported for typing only; records stay layer-free
    from repro.core.classify import Classification
    from repro.core.database import Database
    from repro.core.query import QueryResult

__all__ = [
    "ReadClassification",
    "ClassificationColumns",
    "record_fields",
    "RunReport",
    "ClassificationRun",
    "DatabaseInfo",
    "BuildStats",
    "records_from_classification",
]

UNCLASSIFIED_NAME = "unclassified"


@dataclass(frozen=True)
class ReadClassification:
    """One read's classification outcome.

    ``taxon_id`` is 0 for unclassified reads (NCBI ids start at 1);
    ``target``/``window_first``/``window_last`` preserve MetaCache's
    ability to report the likely *region of origin*, not just a label.
    """

    header: str
    taxon_id: int
    taxon_name: str
    rank: str
    score: int
    target: int
    window_first: int
    window_last: int
    read_length: int = 0

    @property
    def classified(self) -> bool:
        """True when the read was assigned a taxon."""
        return self.taxon_id != 0

    @classmethod
    def unclassified(cls, header: str, read_length: int = 0) -> "ReadClassification":
        """The canonical record for a read no rule could place."""
        return cls(
            header=header,
            taxon_id=0,
            taxon_name=UNCLASSIFIED_NAME,
            rank="-",
            score=0,
            target=-1,
            window_first=0,
            window_last=0,
            read_length=read_length,
        )


#: ``record_fields(record)`` -> the tuple of its field values, in field order
record_fields = operator.attrgetter(*(f.name for f in fields(ReadClassification)))


class ClassificationColumns(Sequence[ReadClassification]):
    """One batch of records as parallel columns, materialised lazily.

    ``columns`` is one list per :class:`ReadClassification` field, in
    field order.  ``len``, slices and ``+`` stay columnar; indexing and
    iterating build records on demand; :meth:`rows` yields the field
    tuples sinks render from.
    """

    def __init__(self, *columns: list[Any]) -> None:
        self.columns = columns

    @classmethod
    def resolve(
        cls,
        db: "Database",
        headers: Sequence[str],
        classification: "Classification",
        read_lengths: np.ndarray | None = None,
    ) -> "ClassificationColumns":
        """Columns of a vectorized Classification: name and rank are
        looked up once per *distinct* taxon, unclassified reads get
        :meth:`ReadClassification.unclassified`'s values."""
        n, top = len(headers), classification
        taxa = np.asarray(top.taxon[:n])
        distinct, inverse = np.unique(taxa, return_inverse=True)
        ids = distinct.tolist()
        names = [db.taxonomy.name_of(t) if t else UNCLASSIFIED_NAME for t in ids]
        ranks = [db.lineages.rank_resolved(t).name.lower() if t else "-" for t in ids]
        hits = np.where(
            taxa != 0,
            [top.top_score[:n], top.best_target[:n],
             top.best_window_first[:n], top.best_window_last[:n]],
            [[0], [-1], [0], [0]],
        )
        return cls(
            list(headers),
            taxa.tolist(),
            np.array(names, dtype=object)[inverse].tolist(),
            np.array(ranks, dtype=object)[inverse].tolist(),
            *hits.tolist(),
            [0] * n if read_lengths is None else np.asarray(read_lengths[:n]).tolist(),
        )

    def __len__(self) -> int:
        return len(self.columns[0])

    @overload
    def __getitem__(self, i: int) -> ReadClassification: ...
    @overload
    def __getitem__(self, i: slice) -> "ClassificationColumns": ...
    def __getitem__(self, i: int | slice) -> "ReadClassification | ClassificationColumns":
        picked = (column[i] for column in self.columns)
        if isinstance(i, slice):
            return ClassificationColumns(*picked)
        return ReadClassification(*picked)

    def __iter__(self) -> Iterator[ReadClassification]:
        return map(ReadClassification, *self.columns)

    def __add__(self, other: "ClassificationColumns") -> "ClassificationColumns":
        return ClassificationColumns(*map(operator.add, self.columns, other.columns))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ClassificationColumns):
            return self.columns == other.columns
        return isinstance(other, Sequence) and list(self) == list(other)

    def rows(self) -> Iterator[tuple[Any, ...]]:
        """Each record's field values as one tuple, in field order."""
        return zip(*self.columns)


@dataclass
class RunReport:
    """Aggregate statistics of a classification run.

    One report per :meth:`QuerySession.classify` call; streaming calls
    merge per-batch reports into a single run-level report.  ``stages``
    holds the query pipeline's per-stage seconds (sketch, query,
    compact, segmented_sort, window_count_top, merge -- the Fig. 5
    breakdown); ``taxon_counts`` accumulates classified reads per
    assigned taxon so abundance estimation works without retaining
    per-read records.

    ``stages`` and ``total_seconds`` sum thread seconds: when
    ``classify_files`` splits a batch into slices classified on
    several threads at once, each slice's stage time is added, so the
    sum can exceed the wall time the batch took.
    """

    n_reads: int = 0
    n_classified: int = 0
    n_batches: int = 0
    max_batch_reads: int = 0
    total_seconds: float = 0.0
    stages: dict[str, float] = field(default_factory=dict)
    taxon_counts: dict[int, int] = field(default_factory=dict)

    @property
    def n_unclassified(self) -> int:
        """Reads that could not be assigned a taxon."""
        return self.n_reads - self.n_classified

    @property
    def classification_rate(self) -> float:
        """Fraction of reads classified (NaN when the run was empty)."""
        return self.n_classified / self.n_reads if self.n_reads else float("nan")

    @property
    def reads_per_second(self) -> float:
        """Throughput over the pipeline's accumulated stage time."""
        if self.total_seconds <= 0:
            return float("nan")
        return self.n_reads / self.total_seconds

    def merge(self, other: "RunReport") -> "RunReport":
        """Fold another (batch) report into this one, in place."""
        self.n_reads += other.n_reads
        self.n_classified += other.n_classified
        self.n_batches += other.n_batches
        self.max_batch_reads = max(self.max_batch_reads, other.max_batch_reads)
        self.total_seconds += other.total_seconds
        for name, seconds in other.stages.items():
            self.stages[name] = self.stages.get(name, 0.0) + seconds
        for taxon, count in other.taxon_counts.items():
            self.taxon_counts[taxon] = self.taxon_counts.get(taxon, 0) + count
        return self

    def summary(self) -> str:
        """One-line human summary (reads, rate, throughput)."""
        return (
            f"{self.n_reads} reads in {self.n_batches} batch(es), "
            f"{self.n_classified} classified ({self.classification_rate:.1%}), "
            f"{self.reads_per_second:,.0f} reads/s"
        )


@dataclass
class ClassificationRun:
    """One classify call's full output: typed records + report + raw arrays.

    Iterating the run iterates its per-read records, so
    ``for rec in session.classify(reads): ...`` just works; records
    are built as they are consumed, never the whole batch up front.
    """

    records: ClassificationColumns
    report: RunReport
    classification: "Classification"
    query: "QueryResult | None" = None

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[ReadClassification]:
        return iter(self.records)

    def __getitem__(self, i: int) -> ReadClassification:
        return self.records[i]

    @property
    def n_classified(self) -> int:
        """Reads assigned a taxon in this run."""
        return self.report.n_classified


@dataclass(frozen=True)
class DatabaseInfo:
    """Summary of an opened database (the CLI's ``info`` output)."""

    n_targets: int
    total_windows: int
    n_partitions: int
    n_taxa: int
    index_bytes: int
    k: int
    sketch_size: int
    window_size: int
    window_stride: int
    max_locations_per_feature: int


def records_from_classification(
    db: "Database",
    headers: list[str],
    classification: "Classification",
    read_lengths: np.ndarray | None = None,
) -> list[ReadClassification]:
    """Resolve a vectorized Classification into per-read records (the
    eager view of :meth:`ClassificationColumns.resolve`)."""
    return list(ClassificationColumns.resolve(db, headers, classification, read_lengths))
