"""Benchmark harness: workloads, runners, tables.

Every table and figure of the paper's evaluation (Section 6) has a
regenerator in ``benchmarks/paper/``; this package holds the shared
pieces:

- :mod:`paper.bench.workloads` -- the mini-scale stand-ins for
  RefSeq202 / AFS31 and the HiSeq / MiSeq / KAL_D read sets, plus the
  paper-scale descriptors the cost model projects from.
- :mod:`paper.bench.runners` -- measured experiment executors (build
  all methods, query all methods, TTQ, accuracy, abundance).
- :mod:`paper.bench.tables` -- ASCII renderers shaped like the
  paper's tables.

Paper-scale numbers come from the calibrated cost model in
:mod:`paper.gpu.costmodel`.

Mini-scale runs use the *paper's* algorithm parameters (k=16, s=16,
w=127) -- only the data is smaller.
"""

from paper.bench.workloads import (
    ReferenceSet,
    ReadDataset,
    refseq_mini,
    afs_plus_mini,
    hiseq_mini,
    miseq_mini,
    kald_mini,
    PAPER_REFSEQ,
    PAPER_AFS,
)
from paper.bench.tables import render_table
from paper.bench.runners import (
    BuildRow,
    run_build_comparison,
    QueryRow,
    run_query_comparison,
    run_accuracy_comparison,
)

__all__ = [
    "ReferenceSet",
    "ReadDataset",
    "refseq_mini",
    "afs_plus_mini",
    "hiseq_mini",
    "miseq_mini",
    "kald_mini",
    "PAPER_REFSEQ",
    "PAPER_AFS",
    "render_table",
    "BuildRow",
    "run_build_comparison",
    "QueryRow",
    "run_query_comparison",
    "run_accuracy_comparison",
]
