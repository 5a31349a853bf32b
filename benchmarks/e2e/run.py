"""End-to-end benchmark of the classifier, one workload per invocation.

    python3 benchmarks/e2e/run.py --workload sparse-se --seed 1 --seconds 55 --trace 0

runs one workload through four phases -- time to query, classify,
serve (closed loop), serve (open loop) -- in repeated cycles, checks
the outputs, prints every end-to-end metric by name with its unit, and
ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 1`` instead re-executes build and classify
layer by layer and prints the per-layer metrics; ``--aa`` runs every
workload twice on the same seed and fails if the two disagree by more
than a metric's bound.  Without ``--workload`` both workloads run in
turn.  README.md has the tables.

This file only orchestrates: inputs are generated by ``gen.py``, the
program is measured in ``local.py`` / ``traced.py`` / its own server
process, each in a process of its own.
"""

from __future__ import annotations

import os

# before numpy is imported anywhere in this process tree
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import hashlib
import json
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import serving
from gen import species_of_taxon
from layers import LAYER_METRICS
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
SPEC_PATH = HERE.parents[1] / "BENCHMARK.json"
SPEC = json.loads(SPEC_PATH.read_text())
UNITS = {entry["name"]: entry for entry in SPEC["end_to_end"] + SPEC["per_layer"]}
BETTER = {entry["name"]: entry["better"] for entry in SPEC["end_to_end"]}
CACHE_DIR = HERE / ".cache"
OUT_DIR = HERE / "out"

# One cycle = a local set-up, a time-to-query pass, a classify pass, a
# server set-up, a closed-loop window and an open-loop window; cycles
# repeat until --seconds is used, at least MIN_CYCLES times.  A budget
# too short for that many full windows (the smoke test's) gets shorter
# windows.
MIN_CYCLES = 5
CLOSED_WINDOW_S, OPEN_WINDOW_S = 1.0, 2.0
CLOSED_SHARE, OPEN_SHARE = 0.15, 0.30
TRACED_WINDOWS = 6
# generator threads = connections: no more than the cores, and no more
# than 2 so that a larger host is not handed a different workload
CONNECTIONS = max(1, min(os.cpu_count() or 1, 2))
WARM_UP_REQUESTS = 24  # per connection
CHILD_TIMEOUT_S = 150.0


def _best(values: list[float], better: str) -> float:
    """The pass or window the host disturbed least (see README, "Best of N")."""
    return min(values) if better == "lower" else max(values)


def _log(message: str) -> None:
    print(f"[e2e] {message}", file=sys.stderr, flush=True)


def host_info() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cores": os.cpu_count(), "cpu": model or platform.processor(),
            "python": platform.python_version(), "numpy": np.__version__,
            "loadavg_start": os.getloadavg()[0]}


def _child(script: str, *args: str) -> None:
    """Run one of the benchmark's own scripts to completion."""
    proc = subprocess.Popen([sys.executable, str(HERE / script), *args],
                            env=serving.child_env(), stdin=subprocess.DEVNULL,
                            stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(CHILD_TIMEOUT_S)
    except BaseException:
        # timeout or interrupt: take pool workers down with the child
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    if code != 0:
        raise RuntimeError(f"{script} exited with code {code}")


@contextlib.contextmanager
def _workspace(workload: Workload, seed: int):
    """A scratch directory under ``out/`` that does not outlive the run."""
    work = OUT_DIR / f"work-{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(script: str, work: Path, spec: dict) -> dict:
    """Run a measuring child on ``spec``; returns the JSON it wrote."""
    spec = dict(spec, work=str(work), result=str(work / "result.json"))
    (work / "spec.json").write_text(json.dumps(spec))
    _child(script, str(work / "spec.json"))
    return json.loads((work / "result.json").read_text())


class Local:
    """``local.py`` as a child that does one round each time it is asked.

    The child warms up on its own, says ``ready``, then waits:
    ``round()`` has it do one set-up pass, one time-to-query pass and
    one classify pass, ``finish()`` ends it and returns the timings of
    all of them.  Between rounds it sleeps on its standard input, so
    the serving windows the orchestrator runs meanwhile have the cores.
    """

    def __init__(self, work: Path, spec: dict) -> None:
        self.result = work / "result.json"
        spec = dict(spec, work=str(work), result=str(self.result))
        (work / "spec.json").write_text(json.dumps(spec))
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "local.py"), str(work / "spec.json")],
            env=serving.child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, start_new_session=True)
        try:
            self.ready = self._reply("ready")
        except BaseException:
            self.kill()
            raise

    def _reply(self, key: str) -> dict:
        assert self.proc.stdout is not None
        readable, _, _ = select.select([self.proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = self.proc.stdout.readline() if readable else ""
        if not line or key not in (reply := json.loads(line)):
            raise RuntimeError(f"local.py did not answer {key!r}: {line!r}")
        return reply

    def round(self) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.write("round\n")
        self.proc.stdin.flush()
        self._reply("done")

    def finish(self) -> dict:
        assert self.proc.stdin is not None
        self.proc.stdin.close()
        if (code := self.proc.wait(CHILD_TIMEOUT_S)) != 0:
            raise RuntimeError(f"local.py exited with code {code}")
        return json.loads(self.result.read_text())

    def kill(self) -> None:
        """Take the child down and reap it."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                pipe.close()


def ensure_inputs(workload: Workload, seed: int, scale: float) -> tuple[Path, dict]:
    """The (cached) input directory of one workload + its ``meta.json``."""
    # the directory name carries the generator's sizes, so edited
    # sizes can never be served stale files
    sizes = dataclasses.astuple(workload.scaled(scale))
    digest = hashlib.sha256(repr(sizes).encode()).hexdigest()[:8]
    directory = CACHE_DIR / f"{workload.name}-seed{seed}-{digest}"
    _child("gen.py", "--workload", workload.name, "--seed", str(seed), "--scale", str(scale),
           "--out", str(directory))
    meta = json.loads((directory / "meta.json").read_text())
    return directory, meta


def _read_fastq(path: Path) -> list[tuple[str, str]]:
    lines = path.read_text().split("\n")
    return [(lines[i][1:], lines[i + 1]) for i in range(0, len(lines) - 3, 4)]


def _requests(inputs: Path, served_tsv: Path, workload: Workload) -> list[serving.Request]:
    tsv = served_tsv.read_bytes().splitlines(keepends=True)
    return serving.build_requests(_read_fastq(inputs / "reads.fq"), tsv[1:], tsv[0],
                                  workload.request_reads)


def _accuracy(tsv: Path, truth_path: Path) -> tuple[float, float]:
    """(species sensitivity, species precision) of one classify_files TSV."""
    taxa = np.array([line.split(b"\t", 2)[1] for line in tsv.read_bytes().splitlines()[1:]],
                    dtype=np.int64)
    truth = np.load(truth_path)
    species = species_of_taxon(taxa)
    right = int((species == truth).sum())
    return right / truth.size, right / max(1, int((species >= 0).sum()))


class Tally:
    """Operations attempted / failed across phases, and named checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, name: str, ok: bool) -> None:
        """One more outcome of a named check; it holds only if all of them do."""
        self.checks[name] = bool(ok) and self.checks.get(name, True)
        self.add(1, 0 if ok else 1)
        if not ok:
            _log(f"check failed: {name}")

    def load(self, result: serving.LoadResult) -> None:
        """Every request is an operation; a wrong body also fails the check."""
        self.add(result.sent, result.failed + result.wrong)
        self.checks["served_responses_identical"] = (
            result.wrong == 0 and self.checks.get("served_responses_identical", True))


def _start_server(v2_dir: Path, requests, tally: Tally) -> tuple[serving.Server, float]:
    """Spawn -> /healthz 200 -> warm-up requests; returns (server, seconds)."""
    t0 = time.perf_counter()
    server = serving.Server(v2_dir).start()
    tally.add(1, 0)
    try:
        tally.load(serving.warm_up(server.port, requests, CONNECTIONS, WARM_UP_REQUESTS))
    except BaseException:
        server.kill()
        raise
    return server, time.perf_counter() - t0


def _cycles(local: Local, v2_dir: Path, requests, workload: Workload, seconds: float,
            tally: Tally) -> tuple[serving.LoadResult, serving.LoadResult, list[float]]:
    """Rounds of the local child and a served pair of windows in alternation.

    Every phase -- the two set-ups too -- is sampled once per cycle, so
    each metric's samples span the whole run: a slow patch of the
    (shared) host spoils a pass and a window or two of every phase,
    which best-of-N and the quiet third ignore, instead of every sample
    of one phase.  Each cycle serves from a server of its own, started
    (that is the server set-up) and drained within the cycle.
    """
    closed_s = min(CLOSED_WINDOW_S, seconds * CLOSED_SHARE / MIN_CYCLES)
    open_s = min(OPEN_WINDOW_S, seconds * OPEN_SHARE / MIN_CYCLES)
    closed, opened = serving.LoadResult(), serving.LoadResult()
    server_setup_s: list[float] = []
    started = time.perf_counter()
    cycles = 0
    while True:
        local.round()
        server, took = _start_server(v2_dir, requests, tally)
        try:
            server_setup_s.append(took)
            closed.merge(serving.closed_window(server.port, requests, CONNECTIONS, closed_s,
                                               closed.sent + opened.sent))
            opened.merge(serving.open_window(server.port, requests, CONNECTIONS, open_s,
                                             workload.open_rate, closed.sent + opened.sent))
            tally.check("server_drained_cleanly", server.stop())
        finally:
            server.kill()
        cycles += 1
        elapsed = time.perf_counter() - started
        # stop when one more cycle of the average length would overrun
        if cycles >= MIN_CYCLES and elapsed + elapsed / cycles > seconds:
            return closed, opened, server_setup_s


def _quiet_third(windows: list[list[float]]) -> list[float]:
    """Latencies of the quietest third of the open-loop windows, pooled.

    Windows are ranked by their median, not by their tail, so the
    choice does not trim the tail it is about to report.
    """
    ranked = sorted((w for w in windows if w), key=statistics.median)
    return [ms for window in ranked[: (len(windows) + 2) // 3] for ms in window]


# ------------------------------------------------------------ end to end


def end_to_end(workload: Workload, seed: int, seconds: float, scale: float) -> dict:
    host = host_info()
    inputs, meta = ensure_inputs(workload, seed, scale)
    tally = Tally()
    with _workspace(workload, seed) as work:
        # ---- the measured child: warm-up passes, then a round when asked
        child = Local(work, {"inputs": str(inputs)})
        try:
            # ---- set-up + ttq + classify + serve closed + serve open, in cycles
            requests = _requests(inputs, Path(child.ready["served_tsv"]), workload)
            closed, opened, server_setup_s = _cycles(
                child, Path(child.ready["v2_dir"]), requests, workload, seconds, tally)
            tally.load(closed)
            tally.load(opened)
            local = child.finish()
        finally:
            child.kill()
        tally.add(local["attempted"], local["failed"])
        tally.checks.update(local["checks"])

        sensitivity, precision = _accuracy(Path(local["tsv"]), inputs / "truth.npy")
        tally.check("sensitivity_above_floor", sensitivity >= workload.min_sensitivity)
        tally.check("precision_above_floor", precision >= workload.min_precision)

    ref_bases = meta["ref_bases"]
    # per-pass / per-window samples, each in its metric's own unit
    samples = {
        "build_mbp_per_s": [ref_bases / 1e6 / s for s in local["build_s"]],
        "time_to_query_s": local["ttq_s"],
        "reads_per_s": [local["n_reads"] / s for s in local["pass_s"]],
        "served_reads_per_s": closed.reads_per_s,
        "request_p50_ms": [serving.percentile(w, 0.50) for w in opened.latencies_ms],
        "request_p95_ms": [serving.percentile(w, 0.95) for w in opened.latencies_ms],
        "request_on_time_share": [
            sum(ms <= workload.limit_ms for ms in window) / opened.sent_per_window
            for window in opened.latencies_ms],
        "setup_local_s": local["setup_s"],
        "setup_server_s": server_setup_s,
    }
    metrics = {name: _best(samples[name], better) for name, better in BETTER.items()
               if name in samples}
    quiet = _quiet_third(opened.latencies_ms)
    metrics.update({
        # percentiles need samples: the quietest third of the windows, pooled
        "request_p50_ms": serving.percentile(quiet, 0.50),
        "request_p95_ms": serving.percentile(quiet, 0.95),
        "setup_s": min(local["setup_s"]) + min(server_setup_s),
        "index_bytes_per_base": local["index_bytes"] / ref_bases,
        "peak_rss_mib": local["peak_rss_mib"],
        "species_sensitivity": sensitivity,
        "species_precision": precision,
        # a share of requests, not a speed: the typical window, not the best
        "request_on_time_share": statistics.median(samples["request_on_time_share"]),
        "ok_share": (tally.attempted - tally.failed) / tally.attempted,
    })
    return {
        "correct": all(tally.checks.values()),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: metrics[name] for name in BETTER},
        "detail": {"host": host, "checks": tally.checks, "samples": samples},
    }


# ---------------------------------------------------------------- traced


def traced(workload: Workload, seed: int, seconds: float, scale: float) -> dict:
    host = host_info()
    inputs, meta = ensure_inputs(workload, seed, scale)
    tally = Tally()
    with _workspace(workload, seed) as work:
        child = _measure("traced.py", work, {"inputs": str(inputs),
                                             "request_reads": workload.request_reads})
        tally.add(child["attempted"], child["failed"])
        tally.checks.update(child["checks"])
        m: dict = child["metrics"]

        # ---- the server layer, from outside
        requests = _requests(inputs, Path(child["served_tsv"]), workload)
        server, _ = _start_server(Path(child["v2_dir"]), requests, tally)
        try:
            m["server.startup_s"] = server.startup_s
            m["server.healthz_ms"] = statistics.median(
                serving.timed_roundtrips(server.port, [serving.HEALTHZ_WIRE] * 200))
            one_read = serving.build_requests(
                _read_fastq(inputs / "first.fq")[:64], [b""] * 64, b"", 1)
            m["server.one_read_ms"] = statistics.median(
                serving.timed_roundtrips(server.port, [r.wire for r in one_read]))
            before, cpu0 = server.stats()["requests"], server.cpu_seconds()
            opened = serving.LoadResult()
            for _ in range(TRACED_WINDOWS):
                opened.merge(serving.open_window(
                    server.port, requests, CONNECTIONS,
                    min(OPEN_WINDOW_S, seconds * OPEN_SHARE / TRACED_WINDOWS),
                    workload.open_rate, opened.sent))
            tally.load(opened)
            after, cpu1 = server.stats()["requests"], server.cpu_seconds()
            m["server.peak_rss_mib"] = server.peak_rss_mib()
            tally.check("server_drained_cleanly", server.stop())
        finally:
            server.kill()

    pooled = [ms for window in opened.latencies_ms for ms in window]
    reads_served = after["reads_served"] - before["reads_served"]
    m["server.batcher_p50_ms"] = after["latency"]["p50_ms"]
    m["server.http_overhead_ms"] = serving.percentile(pooled, 0.50) - after["latency"]["p50_ms"]
    m["server.batches"] = after["batches"]["n_batches"] - before["batches"]["n_batches"]
    m["server.mean_batch_reads"] = reads_served / max(1, m["server.batches"])
    m["server.rejected_503"] = after["requests_rejected"]
    m["server.cpu_s_per_kread"] = (cpu1 - cpu0) / max(1, reads_served) * 1e3
    m["server.request_p99_ms"] = serving.percentile(pooled, 0.99)
    m["bench.generate_s"] = meta["generate_s"]
    m["bench.loadgen_late_p95_ms"] = serving.percentile(opened.late_ms, 0.95)
    m["bench.loadavg_start"] = host["loadavg_start"]

    OUT_DIR.mkdir(exist_ok=True)
    # a scaled-down (smoke) run must not overwrite a real span file
    trace_file = OUT_DIR / (f"trace-{workload.name}.json" if scale == 1.0
                            else f"trace-{workload.name}-x{scale:g}.json")
    trace_file.write_text(json.dumps({"workload": workload.name, "seed": seed, "host": host,
                                      "metrics": m, "spans": child["spans"]}))
    _log(f"{len(child['spans'])} spans written to {trace_file}")
    return {
        "correct": all(tally.checks.values()),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {layer.name: m[layer.name] for layer in LAYER_METRICS},
        "detail": {"host": host, "checks": tally.checks, "trace_file": str(trace_file)},
    }


# ---------------------------------------------------------------- output


def report(workload: str, result: dict) -> None:
    """The human-readable table, then the one-line JSON result."""
    detail = result.pop("detail")
    samples = detail.get("samples", {})
    print(f"# {workload}  host={json.dumps(detail['host'])}")
    for name, value in result["metrics"].items():
        spread = ""
        if name in samples:
            v = samples[name]
            spread = f"   [median {statistics.median(v):.6g}, worst " \
                     f"{_best(v, 'higher' if BETTER[name] == 'lower' else 'lower'):.6g}, n={len(v)}]"
        print(f"{workload:14s} {name:38s} {value:>14.6g} {UNITS[name]['unit']:10s}{spread}")
    if samples:
        print(f"# samples: {json.dumps(samples)}")
    print(f"# checks: {json.dumps(detail['checks'])}")
    result["metrics"] = {name: {"value": value, "unit": UNITS[name]["unit"]}
                         for name, value in result["metrics"].items()}
    print(json.dumps(result), flush=True)


def aa(seed: int, seconds: float, scale: float) -> int:
    """Every workload twice on one seed; the pair must agree within bounds."""
    worst = 0
    for name, workload in WORKLOADS.items():
        first, second = (end_to_end(workload, seed, seconds, scale)["metrics"] for _ in range(2))
        for metric, a in first.items():
            b, bound = second[metric], UNITS[metric]["bound"]
            diff = abs(a - b) / abs(a) if a else float(b != a)
            over = diff > bound
            worst += over
            print(f"{name:14s} {metric:24s} {a:>14.6g} {b:>14.6g} "
                  f"diff {diff:8.4f}  bound {bound:6.3f}  {'OVER' if over else 'ok'}", flush=True)
    print(f"A/A: {worst} pair(s) over their bound")
    return 1 if worst else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all, in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--aa", action="store_true", help="A/A stability gate over all workloads")
    ap.add_argument("--scale", type=float, default=1.0, help="input size factor (smoke test)")
    args = ap.parse_args(argv)
    if not (HERE.parents[1] / "src" / "repro").is_dir():
        sys.exit("benchmarks/e2e measures the program under src/repro, which is not here")
    # a terminated benchmark still unwinds, so servers and pools die with it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    seconds = args.seconds or SPEC["run_seconds"]
    if args.aa:
        return aa(args.seed, seconds, args.scale)
    for name in [args.workload] if args.workload else list(WORKLOADS):
        run = traced if args.trace else end_to_end
        report(name, run(WORKLOADS[name], args.seed, seconds, args.scale))
    return 0


if __name__ == "__main__":
    sys.exit(main())
