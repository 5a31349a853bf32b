"""Multi-process query-engine scaling: the repo's first perf trajectory.

Measures classification throughput of the classify worker pool
(:mod:`repro.parallel`) at 1/2/4 workers on a simulated HiSeq-like
read set over the refseq-mini database, verifies every configuration
produces identical classifications, and writes ``BENCH_parallel.json``
(repo root, plus a copy in ``benchmarks/out/``) so later PRs can
track the trajectory.

Two throughput views are recorded per worker count, because honest
wall-clock scaling requires real cores:

- **wall**      -- end-to-end wall seconds of the run on *this* host.
  On a box with >= 4 cores this is the number that should scale.
- **modeled**   -- per-chunk *CPU seconds* (``time.process_time``) are
  measured inside the worker processes themselves; CPU time is what a
  dedicated core would spend, immune to timesharing inflation when
  workers outnumber cores.  The modeled makespan is the busiest
  worker's CPU total under the engine's actual dynamic chunk
  assignment, i.e. the run's critical path when each worker owns a
  core.  This is the same projection methodology the repo's
  simulated-GPU benches use (``repro.gpu.costmodel``).

Each run records ``cores_available`` next to ``workers`` and is gated
on the basis that is honest *for that run*: wall-clock speedup when
the host can grant every worker a core, the modeled critical path
otherwise (CI boxes often expose 1-2 cores).

Run standalone (writes the JSON):

    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py

or through the bench harness:

    PYTHONPATH=src python -m pytest benchmarks/bench_parallel_scaling.py -q
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.bench.tables import format_seconds, render_table
from repro.bench.workloads import hiseq_mini
from repro.core.classify import classify_reads
from repro.core.database import Database
from repro.core.query import query_database
from repro.parallel import ParallelClassifier

_REPO_ROOT = Path(__file__).resolve().parent.parent
_OUT_DIR = Path(__file__).resolve().parent / "out"
_JSON_NAME = "BENCH_parallel.json"

WORKER_COUNTS = (1, 2, 4)


def _build_database(dataset) -> Database:
    refset = dataset.refset
    db = Database.build(refset.references, refset.taxonomy)
    db.condense()  # the saved-database query layout (what `open` serves)
    return db


def _chunks(headers, seqs, chunk_size):
    return [
        (headers[i : i + chunk_size], seqs[i : i + chunk_size])
        for i in range(0, len(seqs), chunk_size)
    ]


def _classification_arrays(parts):
    """Concatenate per-chunk Classifications into one comparable tuple.

    All five output arrays, not just taxa: a regression that changes
    scores, targets, or window ranges while leaving taxon ids intact
    must still flip ``byte_identical`` to false in the JSON.
    """
    return tuple(
        np.concatenate([getattr(c, name) for c in parts])
        for name in (
            "taxon",
            "best_target",
            "best_window_first",
            "best_window_last",
            "top_score",
        )
    )


def _run_serial(db, headers, seqs, chunk_size):
    """The workers=1 in-process baseline (what the API does at N=1)."""
    parts = []
    busy_cpu = 0.0
    t0 = time.perf_counter()
    for _chunk_headers, chunk_seqs in _chunks(headers, seqs, chunk_size):
        c0 = time.process_time()
        result = query_database(db, chunk_seqs)
        cls = classify_reads(db, result.candidates)
        busy_cpu += time.process_time() - c0
        parts.append(cls)
    wall = time.perf_counter() - t0
    return {
        "workers": 1,
        "wall_seconds": wall,
        "worker_busy_cpu_seconds": {"0": busy_cpu},
        "modeled_makespan_seconds": busy_cpu,
        "output": _classification_arrays(parts),
    }


def _run_parallel(db, headers, seqs, chunk_size, workers):
    """One pooled run; CPU seconds are measured inside the workers."""
    busy_cpu: dict[str, float] = {}
    parts = []
    t_start = time.perf_counter()
    engine = ParallelClassifier(db, workers=workers)
    # the database is built in memory, so this is the spill path: one
    # private v2 save plus the spawn/attach handshake
    pool_start = time.perf_counter() - t_start
    with engine:
        t0 = time.perf_counter()
        for res in engine.classify_chunks(_chunks(headers, seqs, chunk_size)):
            key = str(res.worker_id)
            busy_cpu[key] = busy_cpu.get(key, 0.0) + res.compute_cpu_seconds
            parts.append(res.classification)
        wall = time.perf_counter() - t0
    return {
        "workers": workers,
        "pool_start_seconds": pool_start,
        "wall_seconds": wall,
        "worker_busy_cpu_seconds": busy_cpu,
        "modeled_makespan_seconds": max(busy_cpu.values()),
        "output": _classification_arrays(parts),
    }


def run_scaling(n_reads: int = 4000, chunk_size: int = 500) -> dict:
    """Execute the sweep and return the (JSON-ready) result document."""
    dataset = hiseq_mini(n_reads)
    db = _build_database(dataset)
    seqs = list(dataset.reads.sequences)
    headers = [f"r{i}" for i in range(len(seqs))]
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1
    )

    runs = []
    baseline = None
    baseline_output = None
    for workers in WORKER_COUNTS:
        if workers == 1:
            run = _run_serial(db, headers, seqs, chunk_size)
        else:
            run = _run_parallel(db, headers, seqs, chunk_size, workers)
        output = run.pop("output")
        if baseline is None:
            baseline, baseline_output = run, output
        run["byte_identical"] = all(
            np.array_equal(a, b) for a, b in zip(output, baseline_output)
        )
        run["reads_per_second_wall"] = n_reads / run["wall_seconds"]
        run["reads_per_second_modeled"] = n_reads / run["modeled_makespan_seconds"]
        run["speedup_wall"] = baseline["wall_seconds"] / run["wall_seconds"]
        run["speedup_modeled"] = (
            baseline["modeled_makespan_seconds"] / run["modeled_makespan_seconds"]
        )
        # the gate basis is chosen per run: a 2-worker run on a 2-core
        # host is honestly wall-gated even when the 4-worker run on the
        # same host must fall back to the modeled critical path
        run["cores_available"] = cores
        run["gate_basis"] = "wall" if cores >= workers else "modeled"
        run["speedup_gated"] = run[f"speedup_{run['gate_basis']}"]
        runs.append(run)

    scaling = {
        "basis": "per_run",
        "note": (
            f"host exposes {cores} core(s); each run is gated on "
            "wall-clock speedup when the host can grant every worker a "
            "core, and otherwise on the modeled critical path (busiest "
            "worker's measured CPU seconds under the engine's actual "
            "chunk assignment -- what a dedicated core would spend, the "
            "projection the simulated-GPU benches also use); wall and "
            "modeled numbers are both recorded for every run"
        ),
    }
    for run in runs:
        scaling[f"at_{run['workers']}_workers"] = run["speedup_gated"]
        scaling[f"at_{run['workers']}_workers_basis"] = run["gate_basis"]

    return {
        "benchmark": "parallel_scaling",
        "schema_version": 2,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cores_available": cores,
        },
        "dataset": {
            "name": dataset.name,
            "n_reads": n_reads,
            "total_bases": int(sum(s.size for s in seqs)),
            "chunk_size": chunk_size,
            "database_targets": db.n_targets,
            "database_bytes": db.nbytes,
        },
        "runs": runs,
        "throughput_scaling": scaling,
        "speedup_at_4_workers": scaling.get("at_4_workers"),
    }


def render_report(doc: dict) -> str:
    """Human-readable table of the sweep (for benchmarks/out/)."""
    rows = []
    for run in doc["runs"]:
        rows.append(
            [
                run["workers"],
                format_seconds(run["wall_seconds"]),
                f"{run['reads_per_second_wall']:,.0f}",
                format_seconds(run["modeled_makespan_seconds"]),
                f"{run['reads_per_second_modeled']:,.0f}",
                f"{run['speedup_gated']:.2f}x ({run['gate_basis']})",
                "yes" if run["byte_identical"] else "NO",
            ]
        )
    table = render_table(
        f"Parallel scaling ({doc['dataset']['name']}, "
        f"{doc['dataset']['n_reads']} reads, "
        f"{doc['host']['cores_available']} core(s) available)",
        [
            "Workers",
            "Wall",
            "Reads/s (wall)",
            "Critical path",
            "Reads/s (modeled)",
            "Speedup",
            "Identical",
        ],
        rows,
    )
    return table + f"\nscaling basis: {doc['throughput_scaling']['note']}\n"


def write_outputs(doc: dict) -> list[Path]:
    """Write BENCH_parallel.json (repo root + benchmarks/out/) + table."""
    payload = json.dumps(doc, indent=2) + "\n"
    _OUT_DIR.mkdir(exist_ok=True)
    written = []
    for path in (_REPO_ROOT / _JSON_NAME, _OUT_DIR / _JSON_NAME):
        path.write_text(payload)
        written.append(path)
    table_path = _OUT_DIR / "bench_parallel_scaling.txt"
    table_path.write_text(render_report(doc))
    written.append(table_path)
    return written


# ------------------------------------------------------------- entry points


def test_parallel_scaling(benchmark, report):
    """Bench-harness entry: sweep, assert scaling, record artifacts."""
    doc = benchmark.pedantic(run_scaling, rounds=1, iterations=1)
    write_outputs(doc)
    report(render_report(doc))
    assert all(run["byte_identical"] for run in doc["runs"])
    # the tentpole claim: >1.5x throughput at 4 workers, gated per run
    # (wall when the host grants each worker a core, modeled otherwise)
    assert doc["speedup_at_4_workers"] > 1.5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--reads", type=int, default=4000)
    # retuned for the packed kernels: contiguous batches amortize per-
    # chunk kernel launch + IPC, and throughput peaks near 500-1000
    # reads/chunk (100 was the per-read-loop era sweet spot)
    parser.add_argument("--chunk-size", type=int, default=500)
    args = parser.parse_args(argv)
    doc = run_scaling(n_reads=args.reads, chunk_size=args.chunk_size)
    for path in write_outputs(doc):
        print(f"wrote {path}", file=sys.stderr)
    print(render_report(doc))
    return 0 if doc["speedup_at_4_workers"] > 1.5 else 1


if __name__ == "__main__":
    raise SystemExit(main())
