"""Sharded serving: throughput vs shard count + replica-kill degradation.

The claim under test is the shard router's contract
(:mod:`repro.shard`): presenting N index shards x R replicas as one
logical classification service must (a) stay **byte-identical** to a
single-process run over the whole database at every shard count, and
(b) survive a replica killed with SIGKILL mid-run without failing a
single batch -- the shard merely reports degraded until the respawn
lands.

Two sweeps over one saved format-v2 database (4 partitions):

- **scaling** -- shards in {1, 2[, 4]} at replicas=1: repeated packed
  query batches through :class:`~repro.shard.ShardRouter`, every
  result byte-compared against the single-process
  :func:`~repro.core.query.query_database` reference.  Any mismatch
  fails the run (exit 1 / assertion) -- this is a correctness gate
  first, a throughput curve second.
- **degradation** -- shards=2, replicas=2: a timer SIGKILLs one
  replica while batches are in flight; the run must complete with
  zero failed batches and zero output divergence, and the router's
  failover/death/respawn counters are recorded.

Writes ``BENCH_shard.json`` (repo root + ``benchmarks/out/``).

Run standalone (writes the JSON):

    PYTHONPATH=src python benchmarks/bench_shard.py

or through the bench harness:

    PYTHONPATH=src python -m pytest benchmarks/bench_shard.py -q
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.api import MetaCache
from repro.bench.tables import render_table
from repro.bench.workloads import hiseq_mini
from repro.core.query import query_database
from repro.pipeline.packed import PackedReads
from repro.shard import ShardPlan, ShardRouter

_REPO_ROOT = Path(__file__).resolve().parent.parent
_OUT_DIR = Path(__file__).resolve().parent / "out"
_JSON_NAME = "BENCH_shard.json"

N_PARTITIONS = 4


def _same_result(got, ref) -> bool:
    return (
        np.array_equal(got.candidates.target, ref.candidates.target)
        and np.array_equal(got.candidates.score, ref.candidates.score)
        and np.array_equal(got.candidates.valid, ref.candidates.valid)
        and np.array_equal(got.read_lengths, ref.read_lengths)
        and got.total_locations == ref.total_locations
    )


def _timed_batches(router, packed, params, ref, n_batches) -> dict:
    """Run ``n_batches`` router queries; byte-compare each against ref."""
    router.query(packed, params=params)  # warm: every replica attached
    mismatches = 0
    t0 = time.perf_counter()
    for _ in range(n_batches):
        got = router.query(packed, params=params)
        if not _same_result(got, ref):
            mismatches += 1
    wall = time.perf_counter() - t0
    return {
        "batches": n_batches,
        "wall_seconds": wall,
        "reads_per_second": n_batches * packed.n_reads / wall,
        "mismatches": mismatches,
    }


def run_shard_bench(
    n_reads: int = 512,
    shard_counts: tuple[int, ...] = (1, 2),
    replicas: int = 2,
    n_batches: int = 4,
) -> dict:
    """Execute both sweeps over one saved database; return the doc."""
    dataset = hiseq_mini(n_reads)
    refset = dataset.refset
    references = [
        (g.name, g.scaffolds[0], refset.taxa.target_taxon[i])
        for i, g in enumerate(refset.genomes)
    ]
    packed = PackedReads.from_reads(list(dataset.reads.sequences))

    with tempfile.TemporaryDirectory(prefix="bench_shard_") as tmp:
        db_dir = Path(tmp) / "db_v2"
        mc = MetaCache.ephemeral(
            references, refset.taxonomy, n_partitions=N_PARTITIONS
        )
        mc.save(db_dir)
        mc.close()

        # single-process reference: the byte-identity anchor + baseline
        with MetaCache.open(db_dir, mmap=True) as plain:
            params = plain.params.classification
            ref = query_database(plain.database, packed)
            t0 = time.perf_counter()
            for _ in range(n_batches):
                query_database(plain.database, packed)
            base_wall = time.perf_counter() - t0
        baseline = {
            "batches": n_batches,
            "wall_seconds": base_wall,
            "reads_per_second": n_batches * packed.n_reads / base_wall,
        }

        scaling = []
        for shards in shard_counts:
            plan = ShardPlan.from_directory(db_dir, shards)
            with ShardRouter(plan, replicas=1) as router:
                level = _timed_batches(router, packed, params, ref, n_batches)
            level["shards"] = shards
            level["speedup_vs_single_process"] = (
                level["reads_per_second"] / baseline["reads_per_second"]
            )
            scaling.append(level)

        # degradation: SIGKILL one replica while batches are in flight
        kill_shards = max(s for s in shard_counts if s <= N_PARTITIONS)
        kill_shards = max(2, min(kill_shards, N_PARTITIONS))
        plan = ShardPlan.from_directory(db_dir, kill_shards)
        with ShardRouter(plan, replicas=replicas) as router:
            router.query(packed, params=params)  # warm
            victim = router._sets[0].slots[0].process
            killer = threading.Timer(0.05, victim.kill)
            killer.start()
            mismatches = failures = 0
            t0 = time.perf_counter()
            for _ in range(n_batches):
                try:
                    got = router.query(packed, params=params)
                except Exception:  # noqa: BLE001 - counted as the gate
                    failures += 1
                    continue
                if not _same_result(got, ref):
                    mismatches += 1
            wall = time.perf_counter() - t0
            killer.cancel()
            stats = router.stats()
        degradation = {
            "shards": kill_shards,
            "replicas": replicas,
            "batches": n_batches,
            "wall_seconds": wall,
            "reads_per_second": n_batches * packed.n_reads / wall,
            "failed_batches": failures,
            "mismatches": mismatches,
            "victim_killed": victim.exitcode is not None,
            "deaths": stats["deaths"],
            "failovers": stats["failovers"],
            "respawns": stats["respawns"],
        }

    byte_identical = (
        all(level["mismatches"] == 0 for level in scaling)
        and degradation["mismatches"] == 0
    )
    return {
        "benchmark": "shard",
        "schema_version": 1,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workload": {
            "dataset": dataset.name,
            "n_reads": packed.n_reads,
            "n_partitions": N_PARTITIONS,
            "batches_per_level": n_batches,
        },
        "baseline": baseline,
        "scaling": scaling,
        "degradation": degradation,
        "byte_identical": byte_identical,
        "zero_failed_batches": degradation["failed_batches"] == 0,
    }


def render_report(doc: dict) -> str:
    """Human-readable table of both sweeps (for benchmarks/out/)."""
    rows = [
        [
            "single-process",
            "-",
            doc["baseline"]["batches"],
            f"{doc['baseline']['reads_per_second']:,.0f}",
            "1.00",
            "-",
        ]
    ]
    for level in doc["scaling"]:
        rows.append(
            [
                f"shards={level['shards']}",
                "1",
                level["batches"],
                f"{level['reads_per_second']:,.0f}",
                f"{level['speedup_vs_single_process']:.2f}",
                str(level["mismatches"]),
            ]
        )
    d = doc["degradation"]
    rows.append(
        [
            f"shards={d['shards']} (kill)",
            str(d["replicas"]),
            d["batches"],
            f"{d['reads_per_second']:,.0f}",
            "-",
            str(d["mismatches"]),
        ]
    )
    table = render_table(
        f"Sharded serving ({doc['workload']['dataset']}, "
        f"{doc['workload']['n_reads']} reads/batch, "
        f"{doc['workload']['n_partitions']} partitions)",
        ["Topology", "Replicas", "Batches", "Reads/s", "Speedup", "Mismatch"],
        rows,
    )
    return table + (
        f"\nreplica-kill run: {d['failed_batches']} failed batches, "
        f"{d['deaths']} death(s), {d['failovers']} failover(s), "
        f"{d['respawns']} respawn(s)\n"
        f"byte-identity gate: {'PASS' if doc['byte_identical'] else 'FAIL'}\n"
    )


def write_outputs(doc: dict) -> list[Path]:
    """Write BENCH_shard.json (repo root + benchmarks/out/) + table."""
    payload = json.dumps(doc, indent=2) + "\n"
    _OUT_DIR.mkdir(exist_ok=True)
    written = []
    for path in (_REPO_ROOT / _JSON_NAME, _OUT_DIR / _JSON_NAME):
        path.write_text(payload)
        written.append(path)
    table_path = _OUT_DIR / "bench_shard.txt"
    table_path.write_text(render_report(doc))
    written.append(table_path)
    return written


# ------------------------------------------------------------- entry points


def test_shard_scaling(benchmark, report):
    """Bench-harness entry: sweep, assert both gates, record."""
    doc = benchmark.pedantic(run_shard_bench, rounds=1, iterations=1)
    write_outputs(doc)
    report(render_report(doc))
    assert doc["byte_identical"]
    assert doc["zero_failed_batches"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--reads", type=int, default=512)
    parser.add_argument(
        "--shards",
        default="1,2",
        help="comma-separated shard counts for the scaling sweep",
    )
    parser.add_argument("--replicas", type=int, default=2)
    parser.add_argument("--batches", type=int, default=4)
    args = parser.parse_args(argv)
    doc = run_shard_bench(
        n_reads=args.reads,
        shard_counts=tuple(int(s) for s in args.shards.split(",")),
        replicas=args.replicas,
        n_batches=args.batches,
    )
    for path in write_outputs(doc):
        print(f"wrote {path}", file=sys.stderr)
    print(render_report(doc))
    return 0 if doc["byte_identical"] and doc["zero_failed_batches"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
