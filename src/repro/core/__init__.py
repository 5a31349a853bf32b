"""MetaCache core: database build, query, classification.

This package is the paper's primary contribution assembled from the
substrates:

- :mod:`repro.core.config` -- all tunables with the paper defaults
  (k=16, s=16, w=127, 254 locations/feature, ...).
- :mod:`repro.core.database` -- the reference database: partitioned
  multi-bucket k-mer index + taxonomy + target metadata.
- :mod:`repro.core.candidates` -- window-count statistics and
  sliding-window top-candidate generation (Fig. 1 step 2).
- :mod:`repro.core.query` -- the 8-step query pipeline of Section 5.2
  with per-stage instrumentation (Fig. 5).
- :mod:`repro.core.classify` -- the top-hit / LCA classification rule.
- :mod:`repro.core.stats` -- precision/sensitivity evaluation (Table 6).
- :mod:`repro.core.abundance` -- abundance estimation (KAL_D study).
- :mod:`repro.core.io` -- save/load in the condensed query layout.
"""

from repro.core.config import MetaCacheParams, ClassificationParams
from repro.core.database import Database, TargetRecord, DatabasePartition
from repro.core.candidates import Candidates, generate_top_candidates
from repro.core.query import QueryResult, query_database
from repro.core.classify import classify_reads, Classification
from repro.core.stats import evaluate_accuracy, AccuracyReport
from repro.core.abundance import estimate_abundances, abundance_deviation
from repro.core.io import save_database, load_database
from repro.core.mapping import ReadMapping, map_reads
from repro.core.merge import merge_partition_runs, save_candidates, load_candidates

__all__ = [
    "MetaCacheParams",
    "ClassificationParams",
    "Database",
    "TargetRecord",
    "DatabasePartition",
    "Candidates",
    "generate_top_candidates",
    "QueryResult",
    "query_database",
    "classify_reads",
    "Classification",
    "evaluate_accuracy",
    "AccuracyReport",
    "estimate_abundances",
    "abundance_deviation",
    "save_database",
    "load_database",
    "ReadMapping",
    "map_reads",
    "merge_partition_runs",
    "save_candidates",
    "load_candidates",
]
