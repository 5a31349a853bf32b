"""The measured child: time-to-query passes, set-up, classify passes.

Runs in its own process (``python local.py SPEC.json``) so that
``ru_maxrss`` is the program's and not the generator's, and so the
orchestrator never holds the index.  Talks to the program only through
``repro.api`` and hands it only file paths.  Every pass starts with
``gc.collect()``; each phase has one untimed warm-up pass before its
timed ones.

The orchestrator paces the timed passes, so that it can put its
serving windows between them: after the warm-up passes the child
writes ``ready`` to its standard output, then does one round (a
set-up pass, a time-to-query pass and a classify pass) for every
``round`` line on its standard input, answering ``done``.  At end of
input it writes one JSON object with the raw per-pass timings; the
orchestrator picks the best pass of each (README, "Best of N").
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from repro.api import MetaCache, TsvSink


class Ops:
    """Operations attempted / failed; a failure is logged, not raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    @contextlib.contextmanager
    def guard(self, label: str, steps: int = 1):
        """Count ``steps`` operations; an exception fails one of them."""
        self.attempted += steps
        try:
            yield
        except Exception:
            self.failed += 1
            print(f"[e2e] {label} failed:", file=sys.stderr)
            traceback.print_exc()

    def check(self, label: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"[e2e] check failed: {label}", file=sys.stderr)
        return ok


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def classify_to(session, tsv: Path, reads: Path, mates: Path | None) -> int:
    with TsvSink(tsv) as sink:
        return session.classify_files(reads, mates, sink=sink).n_reads


def main(spec_path: str) -> int:
    # standard output is the line protocol with the orchestrator;
    # whatever else prints there goes to standard error instead
    protocol = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    spec = json.loads(Path(spec_path).read_text())
    inputs, work = Path(spec["inputs"]), Path(spec["work"])
    paired = (inputs / "mates.fq").exists()
    reads = inputs / "reads.fq"
    mates = inputs / "mates.fq" if paired else None
    first = inputs / "first.fq"
    first_mates = inputs / "first_mates.fq" if paired else None
    ops = Ops()
    out: dict = {"build_s": [], "save_s": [], "open_s": [], "first_batch_s": [],
                 "ttq_s": [], "setup_s": [], "pass_s": [], "checks": {}}
    v2_dir = work / "index-v2"

    # ---- time to query: FASTA on disk -> build -> save -> open -> first batch
    def ttq_pass(timed: bool) -> None:
        saved = work / "index-ttq"
        shutil.rmtree(saved, ignore_errors=True)
        gc.collect()
        with ops.guard("time-to-query pass", steps=4):
            t0 = time.perf_counter()
            built = MetaCache.build([inputs / "refs.fa"], inputs / "taxonomy",
                                    inputs / "mapping.tsv")
            t1 = time.perf_counter()
            built.save(saved)
            t2 = time.perf_counter()
            opened = MetaCache.open(saved)
            t3 = time.perf_counter()
            classify_to(opened.session(), work / "first-opened.tsv", first, first_mates)
            t4 = time.perf_counter()
            if timed:
                out["build_s"].append(t1 - t0)
                out["save_s"].append(t2 - t1)
                out["open_s"].append(t3 - t2)
                out["first_batch_s"].append(t4 - t3)
                out["ttq_s"].append(t4 - t0)
            else:
                # the index read back must answer exactly as the one built
                classify_to(built.session(), work / "first-built.tsv", first, first_mates)
                out["checks"]["reopened_index_identical"] = ops.check(
                    "reopened index classifies as the built one",
                    (work / "first-built.tsv").read_bytes()
                    == (work / "first-opened.tsv").read_bytes())
                out["index_bytes"] = dir_bytes(saved)
                with ops.guard("save format 2"):
                    built.save(v2_dir, format=2)
            opened.close()
            built.close()

    ttq_pass(timed=False)

    # ---- the session the classify passes run on, and their warm-up pass
    handle = session = None
    with ops.guard("open + warm-up pass", steps=2):
        handle = MetaCache.open(v2_dir, mmap=True)
        session = handle.session()
        classify_to(session, work / "classified.tsv", reads, mates)
    # the peak over exactly one cycle of everything the phases do;
    # later passes repeat it a timing-dependent number of times, which
    # moves the allocator's high-water mark
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference_tsv = (work / "classified.tsv").read_bytes()
    first_tsv = (work / "first-built.tsv").read_bytes()
    identical = True

    # ---- set-up: what the program does before it can answer at speed
    def setup_pass() -> None:
        nonlocal identical
        gc.collect()
        with ops.guard("open + session + first batch", steps=2):
            t0 = time.perf_counter()
            with MetaCache.open(v2_dir, mmap=True) as fresh:
                classify_to(fresh.session(), work / "setup.tsv", first, first_mates)
                out["setup_s"].append(time.perf_counter() - t0)
            identical &= (work / "setup.tsv").read_bytes() == first_tsv

    # ---- classify: FASTQ -> TSV sink on the warm session

    def classify_pass() -> None:
        nonlocal identical
        gc.collect()
        with ops.guard("classify pass"):
            t0 = time.perf_counter()
            n = classify_to(session, work / "pass.tsv", reads, mates)
            out["pass_s"].append(time.perf_counter() - t0)
            out["n_reads"] = n
            identical &= (work / "pass.tsv").read_bytes() == reference_tsv

    # what a served response must say: the server has no paired form,
    # so paired workloads are served (and checked) as first mates
    served_tsv = work / "classified.tsv"
    if paired:
        with ops.guard("single-end reference pass"):
            served_tsv = work / "served.tsv"
            classify_to(handle.session(), served_tsv, reads, None)

    # timed passes of the three kinds alternate (and the orchestrator
    # puts its serving windows between the rounds), so that a slow
    # patch of the (shared) host lands on a few passes of each kind
    # instead of on most passes of one
    def say(message: dict) -> None:
        protocol.write(json.dumps(message) + "\n")
        protocol.flush()

    say({"ready": True, "v2_dir": str(v2_dir), "served_tsv": str(served_tsv)})
    for line in sys.stdin:
        if line.strip() == "round":
            setup_pass()
            ttq_pass(timed=True)
            classify_pass()
            say({"done": True})
    out["checks"]["passes_identical"] = ops.check("every pass wrote the same TSV", identical)
    handle.close()

    out.update(
        attempted=ops.attempted,
        failed=ops.failed,
        tsv=str(work / "classified.tsv"),
    )
    Path(spec["result"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
