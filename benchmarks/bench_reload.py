"""Hot-swap reload under load: zero-downtime gate + swap latency.

The claim under test is the reload subsystem's contract: the serving
index can be replaced between micro-batches while clients classify
continuously, with **zero failed requests**, deterministic release of
the old index's memory maps (flat fd count), and bounded memory
drift.  The measured swap latency is the barrier cost alone -- the
new index is loaded in the background before the swap, so the number
should sit in the milliseconds regardless of database size.

The run serves a memory-mapped v2 database, points ``CLIENTS``
keep-alive clients at ``POST /classify`` in a tight loop, and drives
``N_SWAPS`` consecutive ``POST /admin/reload`` swaps alternating
between two database generations (B extends A, so every swap is
observable: the probe read set answers differently per generation).
Afterwards -- client traffic drained -- three more swap round-trips
check that the process fd count is exactly flat.

Writes ``BENCH_reload.json`` (repo root + ``benchmarks/out/``).
Gates: **zero client failures across all swaps** and **flat fd
count**; RSS drift is recorded and bounded loosely (allocator noise).

Run standalone (writes the JSON):

    PYTHONPATH=src python benchmarks/bench_reload.py

or through the bench harness:

    PYTHONPATH=src python -m pytest benchmarks/bench_reload.py -q
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.api import MetaCache
from repro.bench.tables import render_table
from repro.bench.workloads import hiseq_mini
from repro.core.database import Database
from repro.core.io import save_database
from repro.genomics.alphabet import decode_sequence

_REPO_ROOT = Path(__file__).resolve().parent.parent
_OUT_DIR = Path(__file__).resolve().parent / "out"
_JSON_NAME = "BENCH_reload.json"

CLIENTS = 4
N_SWAPS = 10
RSS_TOLERANCE_KIB = 96 * 1024  # generous: allocator + page-cache noise


def _fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


def _settled_fd_count(deadline_seconds: float = 10.0) -> int:
    """The fd count once it stops moving (socket teardown is async)."""
    last = _fd_count()
    stable_since = time.monotonic()
    deadline = time.monotonic() + deadline_seconds
    while time.monotonic() < deadline:
        time.sleep(0.05)
        current = _fd_count()
        if current != last:
            last = current
            stable_since = time.monotonic()
        elif time.monotonic() - stable_since > 0.4:
            break
    return last


def _rss_kib() -> int:
    for line in open("/proc/self/status"):
        if line.startswith("VmRSS:"):
            return int(line.split()[1])
    return 0


def _percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(p / 100.0 * len(ordered)) - 1))
    return ordered[rank]


def _post(conn, path, body):
    conn.request(
        "POST", path, body=body, headers={"Content-Type": "application/json"}
    )
    resp = conn.getresponse()
    return resp.status, resp.read()


def _build_generations(root: Path, n_reads: int) -> tuple[Path, Path, bytes]:
    """Save generation A (half the refs) and B (all) as v2 databases."""
    dataset = hiseq_mini(n_reads)
    refset = dataset.refset
    references = [
        (g.name, g.scaffolds[0], refset.taxa.target_taxon[i])
        for i, g in enumerate(refset.genomes)
    ]
    half = len(references) // 2
    db_a = Database.build(references[:half], refset.taxonomy)
    db_b = Database.build(references, refset.taxonomy)
    dir_a, dir_b = root / "gen_a", root / "gen_b"
    save_database(db_a, dir_a)
    save_database(db_b, dir_b)
    sequences = [decode_sequence(s) for s in dataset.reads.sequences]
    body = json.dumps(
        {"reads": [[f"q{i}", s] for i, s in enumerate(sequences[:32])]}
    ).encode()
    return dir_a, dir_b, body


def run_reload_bench(n_reads: int = 512, n_swaps: int = N_SWAPS) -> dict:
    """Serve A, hammer /classify, swap n_swaps times; return the doc."""
    with tempfile.TemporaryDirectory(prefix="bench-reload-") as tmp:
        dir_a, dir_b, body = _build_generations(Path(tmp), n_reads)
        mc = MetaCache.open(dir_a, mmap=True)
        thread = mc.serve(port=0, block=False)
        host, port = thread.server.host, thread.server.port
        rss_start = _rss_kib()
        try:
            stop = threading.Event()
            failures: list[str] = []
            served = [0] * CLIENTS

            def client(i: int) -> None:
                conn = http.client.HTTPConnection(host, port, timeout=60)
                try:
                    while not stop.is_set():
                        status, payload = _post(conn, "/classify", body)
                        if status != 200:
                            failures.append(
                                f"client {i}: HTTP {status}: {payload[:120]!r}"
                            )
                            return
                        served[i] += 1
                except Exception as exc:  # noqa: BLE001 - gated below
                    if not stop.is_set():
                        failures.append(
                            f"client {i}: {type(exc).__name__}: {exc}"
                        )
                finally:
                    conn.close()

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(CLIENTS)
            ]
            for t in threads:
                t.start()

            admin = http.client.HTTPConnection(host, port, timeout=120)
            swaps = []
            try:
                for i in range(1, n_swaps + 1):
                    target = dir_b if i % 2 else dir_a
                    t0 = time.perf_counter()
                    status, payload = _post(
                        admin,
                        "/admin/reload",
                        json.dumps({"directory": str(target)}).encode(),
                    )
                    round_trip = time.perf_counter() - t0
                    if status != 200:
                        raise RuntimeError(
                            f"swap {i} failed: HTTP {status}: {payload[:200]!r}"
                        )
                    result = json.loads(payload)
                    swaps.append(
                        {
                            "swap": i,
                            "directory": str(target),
                            "swap_seconds": result["swap_seconds"],
                            "round_trip_seconds": round_trip,
                            "targets": result["targets"],
                        }
                    )
            finally:
                stop.set()
                for t in threads:
                    t.join(timeout=60)

            requests_served = sum(served)

            # fd hygiene, measured without client-socket churn (dead
            # client connections finish tearing down asynchronously, so
            # wait for the fd table to settle first): three more swap
            # round-trips must leave it exactly flat
            fd_before = _settled_fd_count()
            for _ in range(3):
                for target in (dir_b, dir_a):
                    status, _payload = _post(
                        admin,
                        "/admin/reload",
                        json.dumps({"directory": str(target)}).encode(),
                    )
                    assert status == 200
            fd_after = _settled_fd_count()
            admin.close()
            rss_growth = _rss_kib() - rss_start
        finally:
            thread.stop()
            mc.close()

    swap_latencies = [s["swap_seconds"] for s in swaps]
    return {
        "benchmark": "reload",
        "schema_version": 1,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workload": {
            "read_pool": n_reads,
            "reads_per_request": 32,
            "clients": CLIENTS,
            "n_swaps": n_swaps,
        },
        "swaps": swaps,
        "swap_seconds_p50": _percentile(swap_latencies, 50),
        "swap_seconds_max": max(swap_latencies),
        "requests_served_during_swaps": requests_served,
        "client_failures": failures,
        "fd_count": {"before": fd_before, "after": fd_after},
        "fd_flat": fd_after == fd_before,
        "rss_growth_kib": rss_growth,
    }


def render_report(doc: dict) -> str:
    """Human-readable table of the swap sequence (for benchmarks/out/)."""
    rows = [
        [
            s["swap"],
            Path(s["directory"]).name,
            f"{s['swap_seconds'] * 1000:.2f}",
            f"{s['round_trip_seconds'] * 1000:.1f}",
            s["targets"]["new"],
        ]
        for s in doc["swaps"]
    ]
    table = render_table(
        f"Hot-swap reloads under load ({doc['workload']['clients']} clients, "
        f"{doc['workload']['n_swaps']} swaps)",
        ["Swap", "Generation", "Barrier ms", "Round-trip ms", "Targets"],
        rows,
    )
    return table + (
        f"\nrequests served during swaps: "
        f"{doc['requests_served_during_swaps']} "
        f"(failures: {len(doc['client_failures'])})\n"
        f"swap barrier p50/max: {doc['swap_seconds_p50'] * 1000:.2f} / "
        f"{doc['swap_seconds_max'] * 1000:.2f} ms\n"
        f"fd count flat across swaps: {doc['fd_flat']} "
        f"({doc['fd_count']['before']} -> {doc['fd_count']['after']}); "
        f"RSS drift: {doc['rss_growth_kib']} KiB\n"
    )


def write_outputs(doc: dict) -> list[Path]:
    """Write BENCH_reload.json (repo root + benchmarks/out/) + table."""
    payload = json.dumps(doc, indent=2) + "\n"
    _OUT_DIR.mkdir(exist_ok=True)
    written = []
    for path in (_REPO_ROOT / _JSON_NAME, _OUT_DIR / _JSON_NAME):
        path.write_text(payload)
        written.append(path)
    table_path = _OUT_DIR / "bench_reload.txt"
    table_path.write_text(render_report(doc))
    written.append(table_path)
    return written


def _gates_pass(doc: dict) -> bool:
    return (
        not doc["client_failures"]
        and doc["requests_served_during_swaps"] > 0
        and doc["fd_flat"]
        and doc["rss_growth_kib"] < RSS_TOLERANCE_KIB
    )


# ------------------------------------------------------------- entry points


def test_reload_zero_downtime(benchmark, report):
    """Bench-harness entry: swap under load, assert the gates, record."""
    doc = benchmark.pedantic(run_reload_bench, rounds=1, iterations=1)
    write_outputs(doc)
    report(render_report(doc))
    assert doc["client_failures"] == []
    assert doc["requests_served_during_swaps"] > 0
    assert doc["fd_flat"], doc["fd_count"]
    assert doc["rss_growth_kib"] < RSS_TOLERANCE_KIB


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--reads", type=int, default=512)
    parser.add_argument("--swaps", type=int, default=N_SWAPS)
    args = parser.parse_args(argv)
    doc = run_reload_bench(n_reads=args.reads, n_swaps=args.swaps)
    for path in write_outputs(doc):
        print(f"wrote {path}", file=sys.stderr)
    print(render_report(doc))
    return 0 if _gates_pass(doc) else 1


if __name__ == "__main__":
    raise SystemExit(main())
