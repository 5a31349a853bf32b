"""Serving throughput: micro-batching vs batch-size-1 dispatch.

The claim under test is the serving layer's reason to exist: when
many concurrent clients each carry a *small* read batch, coalescing
their traffic into large classification batches
(:class:`repro.server.MicroBatcher`) sustains a multiple of the
request throughput of dispatching every read individually -- the
paper's batching insight applied to request traffic instead of file
streams.

Both modes run the identical HTTP server in-process over the same
warm database; the only difference is the batch bound:

- **coalesced** -- ``max_batch_reads=4096`` (the default): requests
  that arrive while a batch is in flight merge into the next one;
- **batch1**    -- ``max_batch_reads=1``: every read is dispatched
  as its own classification call, i.e. no coalescing at all (the
  per-call overhead the batcher exists to amortize).

Each concurrency level (1, 8, 32 clients) fires a fixed number of
keep-alive JSON requests per client and records requests/s, reads/s
and p50/p99 latency; a one-shot ``QuerySession.classify`` over the
same read pool anchors the numbers against the non-serving baseline.
Writes ``BENCH_serve.json`` (repo root + ``benchmarks/out/``); the
headline gate is **coalesced >= 2x batch1 requests/s at 32 clients**.

Run standalone (writes the JSON):

    PYTHONPATH=src python benchmarks/bench_serve.py

or through the bench harness:

    PYTHONPATH=src python -m pytest benchmarks/bench_serve.py -q
"""

from __future__ import annotations

import argparse
import http.client
import json
import platform
import sys
import threading
import time
from pathlib import Path

from repro.api import MetaCache
from repro.bench.tables import render_table
from repro.bench.workloads import hiseq_mini
from repro.genomics.alphabet import decode_sequence
from repro.server import ClassificationServer, ServerThread

_REPO_ROOT = Path(__file__).resolve().parent.parent
_OUT_DIR = Path(__file__).resolve().parent / "out"
_JSON_NAME = "BENCH_serve.json"

CLIENT_COUNTS = (1, 8, 32)
MODES = {
    "coalesced": dict(max_batch_reads=4096),
    "batch1": dict(max_batch_reads=1),
}


def _percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(p / 100.0 * len(ordered)) - 1))
    return ordered[rank]


def _client_bodies(sequences, n_clients, requests_per_client, reads_per_request):
    """Pre-serialized JSON bodies, rotated so clients hit varied reads."""
    bodies = []
    cursor = 0
    for _ in range(n_clients):
        mine = []
        for _ in range(requests_per_client):
            reads = []
            for _ in range(reads_per_request):
                reads.append(
                    [f"q{cursor}", sequences[cursor % len(sequences)]]
                )
                cursor += 1
            mine.append(json.dumps({"reads": reads}).encode())
        bodies.append(mine)
    return bodies


def _run_level(host, port, bodies) -> dict:
    """One concurrency level: len(bodies) clients, keep-alive requests."""
    latencies: list[list[float]] = [[] for _ in bodies]
    errors: list[str] = []
    start_barrier = threading.Barrier(len(bodies) + 1)

    def client(i, my_bodies):
        conn = http.client.HTTPConnection(host, port, timeout=120)
        try:
            start_barrier.wait()
            for body in my_bodies:
                t0 = time.perf_counter()
                conn.request(
                    "POST",
                    "/classify",
                    body=body,
                    headers={"Content-Type": "application/json"},
                )
                resp = conn.getresponse()
                resp.read()
                if resp.status != 200:
                    errors.append(f"client {i}: HTTP {resp.status}")
                    return
                latencies[i].append(time.perf_counter() - t0)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(f"client {i}: {type(exc).__name__}: {exc}")
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client, args=(i, b))
        for i, b in enumerate(bodies)
    ]
    for t in threads:
        t.start()
    start_barrier.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    if errors:
        raise RuntimeError("; ".join(errors[:3]))
    flat = [lat for per_client in latencies for lat in per_client]
    return {
        "clients": len(bodies),
        "requests": len(flat),
        "wall_seconds": wall,
        "requests_per_second": len(flat) / wall,
        "p50_ms": _percentile(flat, 50) * 1000.0,
        "p99_ms": _percentile(flat, 99) * 1000.0,
    }


def run_serve_bench(
    n_reads: int = 512,
    requests_per_client: int = 6,
    reads_per_request: int = 8,
) -> dict:
    """Execute both modes at every concurrency level; return the doc."""
    dataset = hiseq_mini(n_reads)
    refset = dataset.refset
    references = [
        (g.name, g.scaffolds[0], refset.taxa.target_taxon[i])
        for i, g in enumerate(refset.genomes)
    ]
    mc = MetaCache.ephemeral(references, refset.taxonomy)
    sequences = [decode_sequence(s) for s in dataset.reads.sequences]

    # non-serving anchor: one big in-process batch
    session = mc.session()
    t0 = time.perf_counter()
    run = session.classify([(f"r{i}", s) for i, s in enumerate(sequences)])
    one_shot_seconds = time.perf_counter() - t0
    one_shot = {
        "n_reads": len(sequences),
        "wall_seconds": one_shot_seconds,
        "reads_per_second": len(sequences) / one_shot_seconds,
        "n_classified": run.n_classified,
    }

    results: dict[str, list[dict]] = {}
    batch_histograms: dict[str, dict] = {}
    for mode, knobs in MODES.items():
        mode_session = mc.session()
        server = ClassificationServer(mode_session, port=0, **knobs)
        results[mode] = []
        with ServerThread(server):
            for n_clients in CLIENT_COUNTS:
                bodies = _client_bodies(
                    sequences, n_clients, requests_per_client, reads_per_request
                )
                level = _run_level(server.host, server.port, bodies)
                level["reads_per_second"] = (
                    level["requests"] * reads_per_request / level["wall_seconds"]
                )
                results[mode].append(level)
        batch_histograms[mode] = server.stats.batches.snapshot()
        mode_session.close()
    session.close()
    mc.close()

    speedups = {}
    for coalesced, batch1 in zip(results["coalesced"], results["batch1"]):
        speedups[f"at_{coalesced['clients']}_clients"] = (
            coalesced["requests_per_second"] / batch1["requests_per_second"]
        )

    return {
        "benchmark": "serve",
        "schema_version": 1,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workload": {
            "dataset": dataset.name,
            "read_pool": len(sequences),
            "requests_per_client": requests_per_client,
            "reads_per_request": reads_per_request,
            "database_targets": mc.n_targets,
        },
        "one_shot": one_shot,
        "modes": MODES,
        "results": results,
        "batch_histograms": batch_histograms,
        "microbatching_speedup": speedups,
        "speedup_at_32_clients": speedups["at_32_clients"],
    }


def render_report(doc: dict) -> str:
    """Human-readable table of the sweep (for benchmarks/out/)."""
    rows = []
    for mode in MODES:
        for level in doc["results"][mode]:
            rows.append(
                [
                    mode,
                    level["clients"],
                    level["requests"],
                    f"{level['requests_per_second']:,.1f}",
                    f"{level['reads_per_second']:,.0f}",
                    f"{level['p50_ms']:.1f}",
                    f"{level['p99_ms']:.1f}",
                ]
            )
    table = render_table(
        f"Serving throughput ({doc['workload']['dataset']}, "
        f"{doc['workload']['reads_per_request']} reads/request)",
        ["Mode", "Clients", "Requests", "Req/s", "Reads/s", "p50 ms", "p99 ms"],
        rows,
    )
    speedup = doc["speedup_at_32_clients"]
    anchor = doc["one_shot"]["reads_per_second"]
    return table + (
        f"\nmicro-batching speedup at 32 clients: {speedup:.2f}x "
        f"(gate: >= 2x)\none-shot in-process baseline: {anchor:,.0f} reads/s\n"
    )


def write_outputs(doc: dict) -> list[Path]:
    """Write BENCH_serve.json (repo root + benchmarks/out/) + table."""
    payload = json.dumps(doc, indent=2) + "\n"
    _OUT_DIR.mkdir(exist_ok=True)
    written = []
    for path in (_REPO_ROOT / _JSON_NAME, _OUT_DIR / _JSON_NAME):
        path.write_text(payload)
        written.append(path)
    table_path = _OUT_DIR / "bench_serve.txt"
    table_path.write_text(render_report(doc))
    written.append(table_path)
    return written


# ------------------------------------------------------------- entry points


def test_serve_scaling(benchmark, report):
    """Bench-harness entry: sweep, assert the speedup gate, record."""
    doc = benchmark.pedantic(run_serve_bench, rounds=1, iterations=1)
    write_outputs(doc)
    report(render_report(doc))
    assert doc["speedup_at_32_clients"] >= 2.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--reads", type=int, default=512)
    parser.add_argument("--requests-per-client", type=int, default=6)
    parser.add_argument("--reads-per-request", type=int, default=8)
    args = parser.parse_args(argv)
    doc = run_serve_bench(
        n_reads=args.reads,
        requests_per_client=args.requests_per_client,
        reads_per_request=args.reads_per_request,
    )
    for path in write_outputs(doc):
        print(f"wrote {path}", file=sys.stderr)
    print(render_report(doc))
    return 0 if doc["speedup_at_32_clients"] >= 2.0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
