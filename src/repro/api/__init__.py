"""``repro.api`` -- the stable public surface of the reproduction.

The rest of the package (:mod:`repro.core`, :mod:`repro.warpcore`,
:mod:`repro.hashing`, ...) is internal machinery that may be refactored
freely between releases; code outside ``src/repro`` should talk to
this facade only.  The full tour lives in README.md; the short one:

    from repro.api import MetaCache, TsvSink

    mc = MetaCache.open("path/to/db")           # or .build(...) / .ephemeral(...)
    session = mc.session()                      # warm, reusable
    run = session.classify(reads)               # typed records
    for rec in run:
        print(rec.header, rec.taxon_name, rec.score)

    with TsvSink("out.tsv") as sink:            # streaming, bounded memory
        report = session.classify_files("sample.fastq.gz", sink=sink)

Exports fall into four groups:

- **facade & sessions**: :class:`MetaCache`, :class:`QuerySession`,
  :func:`iter_batches`, plus the streaming build pipeline behind
  ``MetaCache.build`` / ``MetaCache.extend``: :class:`DatabaseBuilder`
  with its :class:`BuildStats` accounting;
- **typed results**: :class:`ReadClassification`, the lazy batch of
  them :class:`ClassificationColumns`, :class:`RunReport`,
  :class:`ClassificationRun`, :class:`DatabaseInfo` (plus the raw
  :class:`Classification` / :class:`QueryResult` for array workflows);
- **sinks**: the :class:`Sink` protocol, TSV/JSONL/Kraken
  implementations, :func:`open_sink` / :func:`register_sink` /
  :func:`write_records`;
- **errors & parameters**: the :class:`MetaCacheError` hierarchy,
  :class:`MetaCacheParams` / :class:`ClassificationParams` /
  :class:`SketchParams`, and curated analysis helpers (accuracy,
  abundance, mapping refinement, partition-run merging).

The HTTP serving layer (``MetaCache.serve`` / ``metacache-repro
serve``) lives in :mod:`repro.server` and consumes this facade like
any other client.
"""

from repro.api.errors import (
    BuildError,
    ConfigError,
    DatabaseFormatError,
    InvalidMappingError,
    InvalidReadError,
    MetaCacheError,
    OverloadedError,
    PipelineError,
    ReloadError,
    ServerError,
    UnknownFormatError,
    WorkerCrashError,
)
from repro.api.facade import MetaCache, load_accession_mapping
from repro.api.records import (
    BuildStats,
    ClassificationColumns,
    ClassificationRun,
    DatabaseInfo,
    ReadClassification,
    RunReport,
)

# the streaming build pipeline (MetaCache.build/extend drive this
# internally; exported for callers orchestrating their own streams)
from repro.core.builder import DatabaseBuilder
from repro.api.session import DEFAULT_BATCH_SIZE, QuerySession, iter_batches
from repro.api.sinks import (
    CollectSink,
    JsonlSink,
    KrakenSink,
    Sink,
    TextSink,
    TsvSink,
    open_sink,
    read_jsonl,
    read_kraken,
    read_tsv,
    register_sink,
    sink_formats,
    write_records,
)

# parameter / result types callers hold (stable re-exports)
from repro.core.classify import Classification
from repro.core.config import ClassificationParams, MetaCacheParams
from repro.core.query import QueryResult
from repro.hashing.sketch import SketchParams

# the multi-process query engine (session(workers=N).classify_files
# drives this internally; re-exported for callers orchestrating their
# own chunk streams)
from repro.parallel import (
    ChunkResult,
    FileBackedDatabaseHandle,
    ParallelClassifier,
)

# curated analysis helpers riding on the classification results
from repro.core.abundance import (
    abundance_deviation,
    estimate_abundances,
    estimate_abundances_from_counts,
)
from repro.core.mapping import ReadMapping, refine_mapping
from repro.core.merge import load_candidates, merge_partition_runs, save_candidates
from repro.core.stats import AccuracyReport, evaluate_accuracy
from repro.genomics.io import read_sequences

__all__ = [
    # facade & sessions
    "MetaCache",
    "DatabaseBuilder",
    "QuerySession",
    "iter_batches",
    "DEFAULT_BATCH_SIZE",
    "load_accession_mapping",
    # typed results
    "ReadClassification",
    "RunReport",
    "ClassificationColumns",
    "ClassificationRun",
    "DatabaseInfo",
    "BuildStats",
    "Classification",
    "QueryResult",
    # sinks
    "Sink",
    "TextSink",
    "TsvSink",
    "JsonlSink",
    "KrakenSink",
    "CollectSink",
    "open_sink",
    "register_sink",
    "sink_formats",
    "write_records",
    "read_tsv",
    "read_jsonl",
    "read_kraken",
    # errors
    "MetaCacheError",
    "ConfigError",
    "BuildError",
    "DatabaseFormatError",
    "InvalidReadError",
    "InvalidMappingError",
    "UnknownFormatError",
    "PipelineError",
    "WorkerCrashError",
    "ServerError",
    "OverloadedError",
    "ReloadError",
    # multi-process engine
    "ParallelClassifier",
    "ChunkResult",
    "FileBackedDatabaseHandle",
    # parameters
    "MetaCacheParams",
    "ClassificationParams",
    "SketchParams",
    # analysis helpers
    "evaluate_accuracy",
    "AccuracyReport",
    "estimate_abundances",
    "estimate_abundances_from_counts",
    "abundance_deviation",
    "ReadMapping",
    "refine_mapping",
    "merge_partition_runs",
    "save_candidates",
    "load_candidates",
    "read_sequences",
]
