"""Build throughput + bounded-memory check: one-shot vs streaming.

The paper's headline claim is ultra-fast database *construction*
(Table 3): a producer/consumer pipeline that sketches references and
batch-inserts them without ever holding the corpus in memory.  This
bench measures our build surface the same way, at two corpus scales,
for two configurations:

- **one_shot**   -- the pre-builder behavior: parse every reference
  into a list, then build (peak memory grows with the corpus);
- **streaming**  -- :class:`repro.core.builder.DatabaseBuilder` fed
  through ``add_fasta``'s bounded producer queue (peak transient
  memory is set by the insert batch, not the corpus).

For each run we record wall seconds, throughput (Mbp/s) and the
``tracemalloc`` *transient* peak -- peak traced bytes minus the bytes
still live at the end (i.e. everything allocated beyond the database
itself).  Any builder necessarily has an O(index) working set while
the index materializes (the growing hash table); what streaming
removes is the *corpus* term -- the parsed sequences the one-shot
path collects up front.  The bounded-memory claim is therefore
asserted on the **excess** of one-shot over streaming: it must be
positive and grow with the corpus (it is the collect-all cost), while
the streaming build holds only O(insert-batch) sequences at any time
(the unit test in ``tests/test_builder.py`` pins that exactly with
per-sequence finalizers).  Both configurations must classify a probe
read set identically (they build byte-identical databases).

Writes ``BENCH_build.json`` (repo root, plus a copy in
``benchmarks/out/``) so later PRs can track the trajectory.

Run standalone (writes the JSON):

    PYTHONPATH=src python benchmarks/bench_build.py

or through the bench harness:

    PYTHONPATH=src python -m pytest benchmarks/bench_build.py -q
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.bench.tables import format_seconds, render_table
from repro.core.builder import DatabaseBuilder
from repro.core.classify import classify_reads
from repro.core.config import MetaCacheParams
from repro.core.database import Database
from repro.core.query import query_database
from repro.genomics.alphabet import encode_sequence
from repro.genomics.fasta import read_fasta, write_fasta
from repro.genomics.reads import HISEQ, ReadSimulator
from repro.genomics.simulate import GenomeSimulator
from repro.taxonomy.builder import build_taxonomy_for_genomes

_REPO_ROOT = Path(__file__).resolve().parent.parent
_OUT_DIR = Path(__file__).resolve().parent / "out"
_JSON_NAME = "BENCH_build.json"

#: insert-batch used by every configuration (windows per flush); small
#: enough that the bounded-memory contrast is visible at bench scale
_INSERT_BATCH_WINDOWS = 2_000
#: producer batch for add_fasta (sequences per queue item)
_BATCH_SIZE = 4


def _make_corpus(directory: Path, n_genomes: int, genome_length: int):
    """Simulated genomes written as FASTA files; returns (paths, meta)."""
    genomes = GenomeSimulator(seed=515).simulate_collection(
        max(1, n_genomes // 2), 2, genome_length
    )[:n_genomes]
    taxonomy, taxa = build_taxonomy_for_genomes(genomes)
    paths, acc2tax = [], {}
    for i, g in enumerate(genomes):
        p = directory / f"ref{i:03d}.fasta"
        write_fasta(g.to_fasta_records(), p)
        paths.append(p)
        acc2tax[g.accession] = taxa.target_taxon[i]
    total_bases = sum(g.length for g in genomes)
    return paths, taxonomy, acc2tax, total_bases, genomes


def _traced(fn):
    """Run ``fn`` under tracemalloc; returns (result, seconds, transient).

    ``transient`` is peak traced bytes minus bytes still live when the
    call returns -- the allocation high-water beyond the returned
    database itself.
    """
    gc.collect()
    tracemalloc.start()
    t0 = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - t0
    current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, seconds, max(0, peak - current)


def _build_one_shot(paths, taxonomy, acc2tax, params):
    """The pre-builder path: collect every reference, then build."""
    from repro.core.build import accession_of

    collected = []
    for path in paths:
        for rec in read_fasta(path):
            collected.append(
                (
                    rec.header,
                    encode_sequence(rec.sequence),
                    acc2tax[accession_of(rec.header)],
                )
            )
    return Database.build(
        collected,
        taxonomy,
        params=params,
        insert_batch_windows=_INSERT_BATCH_WINDOWS,
    )


def _build_streaming(paths, taxonomy, acc2tax, params):
    """The builder path: bounded producer queue, batched inserts."""
    builder = DatabaseBuilder(
        taxonomy, params, insert_batch_windows=_INSERT_BATCH_WINDOWS
    )
    builder.add_fasta(paths, acc2tax, batch_size=_BATCH_SIZE)
    return builder.finalize(condense=False)


def _probe_taxa(db, seqs) -> np.ndarray:
    result = query_database(db, seqs)
    return classify_reads(db, result.candidates).taxon


def run_bench(n_genomes: int = 40, genome_length: int = 40_000) -> dict:
    """Execute the comparison and return the (JSON-ready) document.

    The sketch window is widened (w=511) so the index is small
    relative to the corpus -- the regime real reference collections
    live in -- which makes the collect-all cost of the one-shot path
    visible above the (corpus-independent) insert-batch transients.
    """
    from repro.hashing.sketch import SketchParams

    params = MetaCacheParams(
        sketch=SketchParams(k=16, sketch_size=16, window_size=511)
    )
    scales = {"1x": n_genomes, "2x": 2 * n_genomes}
    doc_scales: dict = {}
    with tempfile.TemporaryDirectory(prefix="bench-build-") as tmp:
        tmp = Path(tmp)
        # warm-up: a tiny build through both paths so lazy imports and
        # numpy one-time allocations never contaminate a traced run
        warm_dir = tmp / "warmup"
        warm_dir.mkdir()
        wp, wt, wa, _, _ = _make_corpus(warm_dir, 2, 4_000)
        _build_one_shot(wp, wt, wa, params)
        _build_streaming(wp, wt, wa, params)
        for label, n in scales.items():
            corpus_dir = tmp / label
            corpus_dir.mkdir()
            paths, taxonomy, acc2tax, total_bases, genomes = _make_corpus(
                corpus_dir, n, genome_length
            )
            probe = [
                s
                for s in ReadSimulator(genomes, seed=2).simulate(
                    HISEQ, 100
                ).sequences
            ]
            variants = {
                "one_shot": lambda: _build_one_shot(
                    paths, taxonomy, acc2tax, params
                ),
                "streaming": lambda: _build_streaming(
                    paths, taxonomy, acc2tax, params
                ),
            }
            runs = {}
            reference = None
            for name, fn in variants.items():
                db, seconds, transient = _traced(fn)
                taxa = _probe_taxa(db, probe)
                if reference is None:
                    reference = taxa
                runs[name] = {
                    "seconds": seconds,
                    "mbp_per_second": total_bases / seconds / 1e6,
                    "transient_peak_bytes": int(transient),
                    "byte_identical": bool(np.array_equal(taxa, reference)),
                }
                del db
            doc_scales[label] = {
                "n_genomes": n,
                "total_bases": total_bases,
                "runs": runs,
            }

    s1, s2 = doc_scales["1x"]["runs"], doc_scales["2x"]["runs"]
    growth = {
        name: (
            s2[name]["transient_peak_bytes"]
            / max(1, s1[name]["transient_peak_bytes"])
        )
        for name in s1
    }
    # the collect-all cost: what one-shot allocates beyond streaming
    excess = {
        label: (
            runs["one_shot"]["transient_peak_bytes"]
            - runs["streaming"]["transient_peak_bytes"]
        )
        for label, runs in (("1x", s1), ("2x", s2))
    }
    return {
        "benchmark": "build",
        "schema_version": 1,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "params": {
            "insert_batch_windows": _INSERT_BATCH_WINDOWS,
            "producer_batch_size": _BATCH_SIZE,
        },
        "scales": doc_scales,
        "transient_growth_2x": growth,
        "collect_all_excess_bytes": excess,
        "bounded": {
            # the two assertions the CI gate makes
            "streaming_undercuts_one_shot": (
                s2["streaming"]["transient_peak_bytes"]
                < s2["one_shot"]["transient_peak_bytes"]
            ),
            # the saved corpus bytes grow with the corpus: doubling
            # the input must grow the one-shot-over-streaming excess
            "collect_all_excess_grows": excess["2x"] > 1.3 * excess["1x"],
        },
    }


def render_report(doc: dict) -> str:
    """Human-readable table of the comparison (for benchmarks/out/)."""
    rows = []
    for label, scale in doc["scales"].items():
        for name, run in scale["runs"].items():
            rows.append(
                [
                    label,
                    name,
                    format_seconds(run["seconds"]),
                    f"{run['mbp_per_second']:.2f}",
                    f"{run['transient_peak_bytes'] / 1e6:.1f} MB",
                    "yes" if run["byte_identical"] else "NO",
                ]
            )
    table = render_table(
        "Build throughput & transient memory (one-shot vs streaming)",
        ["Scale", "Mode", "Build", "Mbp/s", "Transient peak", "Identical"],
        rows,
    )
    growth = doc["transient_growth_2x"]
    excess = doc["collect_all_excess_bytes"]
    return table + (
        "\ntransient peak growth when the corpus doubles: "
        + ", ".join(f"{k} {v:.2f}x" for k, v in growth.items())
        + "\ncollect-all excess (one-shot minus streaming): "
        + ", ".join(f"{k} {v / 1e6:.1f} MB" for k, v in excess.items())
        + "\n(the excess is the corpus the streaming build never holds)\n"
    )


def write_outputs(doc: dict) -> list[Path]:
    """Write BENCH_build.json (repo root + benchmarks/out/) + table."""
    payload = json.dumps(doc, indent=2) + "\n"
    _OUT_DIR.mkdir(exist_ok=True)
    written = []
    for path in (_REPO_ROOT / _JSON_NAME, _OUT_DIR / _JSON_NAME):
        path.write_text(payload)
        written.append(path)
    table_path = _OUT_DIR / "bench_build.txt"
    table_path.write_text(render_report(doc))
    written.append(table_path)
    return written


# ------------------------------------------------------------- entry points


def test_build_throughput(benchmark, report):
    """Bench-harness entry: compare builds, assert the bounded claims."""
    doc = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    write_outputs(doc)
    report(render_report(doc))
    for scale in doc["scales"].values():
        assert all(r["byte_identical"] for r in scale["runs"].values())
    assert doc["bounded"]["streaming_undercuts_one_shot"]
    assert doc["bounded"]["collect_all_excess_grows"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--genomes", type=int, default=40)
    parser.add_argument("--genome-length", type=int, default=20_000)
    args = parser.parse_args(argv)
    doc = run_bench(n_genomes=args.genomes, genome_length=args.genome_length)
    for path in write_outputs(doc):
        print(f"wrote {path}", file=sys.stderr)
    print(render_report(doc))
    ok = (
        doc["bounded"]["streaming_undercuts_one_shot"]
        and doc["bounded"]["collect_all_excess_grows"]
        and all(
            r["byte_identical"]
            for scale in doc["scales"].values()
            for r in scale["runs"].values()
        )
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
