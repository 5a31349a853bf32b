"""The traced child: build and classify re-executed layer by layer.

Never the source of an end-to-end number.  It drives the public
functions of each layer itself, in pipeline order, on the same files,
and records a span (name, start, end, parent, batch) around every
call plus the counts at each boundary.  Spans live in memory and are
returned to the orchestrator, which writes them out at exit.

Two kinds of span:

- *stage* spans are the pipeline itself: each runs once per batch, on
  the previous stage's output, and together they are what
  ``classify_files`` / ``MetaCache.build`` do;
- *inner* spans time a lower layer's function again on the same
  arguments its caller passes it (``SingleValueHashTable.retrieve``
  under ``Database.query_features``, ``sketch_sequence`` and
  ``MultiBucketHashTable.insert`` under ``DatabaseBuilder``,
  ``LcaIndex.lca_batch`` under ``classify_reads``).  The program has
  no spans of its own yet, so this repeated call is the only way to
  split a caller's time from outside; it is excluded from the traced
  pass's wall time and from coverage.

``python traced.py SPEC.json``; the result file holds the per-layer
metrics, the check outcomes and the spans.
"""

from __future__ import annotations

import contextlib
import gc
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro.api import MetaCache, QuerySession, TsvSink, load_accession_mapping
from repro.api.records import records_from_classification
from repro.core.build import accession_of
from repro.core.builder import DatabaseBuilder
from repro.core.candidates import generate_top_candidates
from repro.core.classify import classify_reads
from repro.core.database import CondensedIndex
from repro.core.io import load_database, save_database
from repro.genomics import encode_sequence, iter_sequence_records, read_fasta
from repro.hashing.minhash import SKETCH_PAD
from repro.hashing.sketch import sketch_reads_packed, sketch_sequence
from repro.parallel import ParallelClassifier, ParallelSketcher
from repro.pipeline.packed import PackedReads
from repro.sort import read_segment_offsets, segmented_sort_lexsort
from repro.taxonomy import load_ncbi_dump
from repro.util.bitops import pack_pairs
from repro.warpcore import MultiBucketHashTable

from local import Ops, classify_to, dir_bytes

BATCH_READS = 4096  # classify_files' default batch size
QUERY_PASSES = 3
BUILD_PASSES = 3
SMALL_BATCH_REPEATS = 50


class Trace:
    """In-memory span recorder; ``totals`` sums durations by name."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.origin = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, batch: int | None = None, inner: bool = False):
        index = len(self.spans)
        record = {"name": name, "parent": self._open[-1] if self._open else None,
                  "batch": batch, "inner": inner}
        self.spans.append(record)
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield index
        finally:
            end = time.perf_counter()
            self._open.pop()
            record["start"] = start - self.origin
            record["end"] = end - self.origin

    def last_s(self) -> float:
        """Duration of the most recently opened span (call after it closed)."""
        return self.spans[-1]["end"] - self.spans[-1]["start"]

    def totals(self, under: int) -> dict[str, float]:
        """Summed duration by span name over the children of span ``under``."""
        sums: dict[str, float] = {}
        for s in self.spans:
            if s["parent"] == under:
                sums[s["name"]] = sums.get(s["name"], 0.0) + s["end"] - s["start"]
        return sums


def _median_by_key(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


# --------------------------------------------------------------------- build


def _staged_build(trace: Trace, inputs: Path, counts: dict) -> tuple[dict[str, float], object]:
    """One traced build; returns (seconds by span name, the database)."""
    with trace.span("build") as root:
        with trace.span("genomics.fasta_parse"):
            refs = [(r.header, encode_sequence(r.sequence))
                    for r in read_fasta(inputs / "refs.fa")]
        with trace.span("taxonomy.load"):
            taxonomy = load_ncbi_dump(inputs / "taxonomy" / "nodes.dmp",
                                      inputs / "taxonomy" / "names.dmp")
            mapping = load_accession_mapping(inputs / "mapping.tsv")
        with trace.span("core.builder"):
            with DatabaseBuilder(taxonomy) as builder:
                for header, codes in refs:
                    builder.add_reference(header, codes, mapping[accession_of(header)])
                db = builder.finalize(condense=False)
    seconds = trace.totals(root)

    # inner spans: what the builder spent in the layers below it
    params = db.params
    with trace.span("hashing.sketch_refs", inner=True):
        sketches = [sketch_sequence(codes, params.sketch) for _, codes in refs]
    seconds["hashing.sketch_refs"] = trace.last_s()
    feats, locs = [], []
    for target, sk in enumerate(sketches):
        flat = sk.reshape(-1)
        valid = flat != SKETCH_PAD
        windows = np.repeat(np.arange(sk.shape[0], dtype=np.uint64), sk.shape[1])[valid]
        feats.append(flat[valid])
        locs.append(pack_pairs(np.full(windows.size, target, dtype=np.uint64), windows))
    feats, locs = np.concatenate(feats), np.concatenate(locs)
    table = MultiBucketHashTable(
        capacity_values=max(256, feats.size), bucket_size=params.bucket_size,
        group_size=params.group_size, max_load_factor=params.max_load_factor,
        max_locations_per_key=params.max_locations_per_feature)
    with trace.span("warpcore.insert", inner=True):
        table.insert(feats, locs)
    seconds["warpcore.insert"] = trace.last_s()
    built = db.partitions[0].table
    counts.update({
        "warpcore.insert_pairs": int(feats.size),
        "warpcore.load_factor": float(built.load_factor),
        "warpcore.dropped_values": int(built.dropped_values),
        "ref_bases": int(sum(codes.size for _, codes in refs)),
    })
    return seconds, db


def _trace_build(trace: Trace, inputs: Path, work: Path, ops: Ops, m: dict) -> object:
    """Build-side layer metrics; returns the database (build layout)."""
    counts: dict = {}
    walls, rows, db = [], [], None
    for i in range(BUILD_PASSES + 1):
        gc.collect()
        with ops.guard("untraced build"):
            t0 = time.perf_counter()
            handle = MetaCache.build([inputs / "refs.fa"], inputs / "taxonomy",
                                     inputs / "mapping.tsv")
            wall = time.perf_counter() - t0
            handle.close()
        gc.collect()
        with ops.guard("staged build"):
            seconds, db = _staged_build(trace, inputs, counts)
        if i:  # pass 0 warms up
            walls.append(wall)
            rows.append(seconds)
    s = _median_by_key(rows)
    m["genomics.fasta_parse_s"] = s["genomics.fasta_parse"]
    m["hashing.sketch_refs_s"] = s["hashing.sketch_refs"]
    m["warpcore.insert_s"] = s["warpcore.insert"]
    m["core.builder_s"] = s["core.builder"]
    m["trace.build_coverage_share"] = (
        s["genomics.fasta_parse"] + s["taxonomy.load"] + s["core.builder"]
    ) / statistics.median(walls)
    for key in ("warpcore.insert_pairs", "warpcore.load_factor", "warpcore.dropped_values"):
        m[key] = counts[key]

    # ---- the index on disk, both formats, from the build layout
    def timed(name: str, fn):
        gc.collect()
        with trace.span(name):
            value = fn()
        m[name + "_s"] = trace.last_s()
        return value

    with ops.guard("condense, save, open (both formats)", steps=5):
        timed("core.condense", lambda: CondensedIndex.from_table(db.partitions[0].table))
        timed("core.save", lambda: save_database(db, work / "index-v1"))
        m["core.index_bytes"] = dir_bytes(work / "index-v1")
        loaded = timed("core.open", lambda: load_database(work / "index-v1"))
        session = QuerySession(loaded)
        timed("core.first_batch", lambda: classify_to(
            session, work / "first.tsv", inputs / "first.fq",
            inputs / "first_mates.fq" if (inputs / "first_mates.fq").exists() else None))
        loaded.close()
        timed("core.save_v2", lambda: save_database(db, work / "index-v2", format=2))
        db.close()
        return timed("core.open_v2_mmap", lambda: load_database(work / "index-v2", mmap=True))


# --------------------------------------------------------------------- query


def _parse_batches(trace: Trace, reads: Path, mates: Path | None):
    """Yield (batch id, headers, codes, mate codes) as the producer would."""
    streams = [iter_sequence_records(reads)]
    if mates is not None:
        streams.append(iter_sequence_records(mates))
    batch = 0
    while True:
        with trace.span("genomics.fastq_parse", batch):
            headers, codes, mate_codes = [], [], []
            for record in zip(*streams):
                headers.append(record[0][0])
                codes.append(encode_sequence(record[0][1]))
                if mates is not None:
                    mate_codes.append(encode_sequence(record[1][1]))
                if len(headers) == BATCH_READS:
                    break
        if not headers:
            return
        yield batch, headers, codes, mate_codes if mates is not None else None
        batch += 1


def _staged_query(trace: Trace, db, reads: Path, mates: Path | None, tsv: Path,
                  counts: dict, keep: list | None) -> dict[str, float]:
    """One traced pass of the classify pipeline; seconds by span name."""
    params = db.params
    cp = params.classification
    m_top = cp.max_candidates
    index = db.partitions[0].condensed
    target_dense = np.array([db.taxonomy.index_of(int(t)) for t in db.target_taxa()],
                            dtype=np.int64)
    tally = dict.fromkeys(("bases", "batches", "windows", "features", "hits",
                           "locations", "reads", "sink_bytes"), 0)
    with trace.span("query") as root:
        with TsvSink(tsv) as sink:
            for b, headers, codes, mate_codes in _parse_batches(trace, reads, mates):
                with trace.span("pipeline.pack", b):
                    packed = PackedReads.from_reads(codes, mate_codes)
                with trace.span("hashing.sketch_reads", b):
                    sketches, window_reads = sketch_reads_packed(
                        packed.buffer, packed.offsets, params.sketch, packed.read_ids)
                with trace.span("core.query_features", b):
                    flat = sketches.reshape(-1)
                    valid = flat != SKETCH_PAD
                    n_windows, s = sketches.shape
                    feat_window = np.repeat(np.arange(n_windows, dtype=np.int64), s)[valid]
                    features = flat[valid]
                    locations, feat_offsets = db.query_features(features, 0)
                with trace.span("warpcore.retrieve", b, inner=True):
                    _, found = index.pointers.retrieve(features)
                with trace.span("sort.compact", b):
                    window_counts = np.zeros(n_windows, dtype=np.int64)
                    np.add.at(window_counts, feat_window, np.diff(feat_offsets))
                    read_offsets = read_segment_offsets(
                        window_reads, window_counts, packed.n_reads)
                with trace.span("sort.segmented_sort", b):
                    ordered = segmented_sort_lexsort(locations, read_offsets)
                with trace.span("core.top_candidates", b):
                    cands = generate_top_candidates(
                        ordered, read_offsets,
                        params.sliding_window_sizes(packed.read_lengths), m_top)
                with trace.span("core.classify", b):
                    cls = classify_reads(db, cands, cp)
                if cands.m > 1:
                    both = cands.valid[:, 0] & cands.valid[:, 1]
                    first = target_dense[cands.target[both, 0].astype(np.int64)]
                    second = target_dense[cands.target[both, 1].astype(np.int64)]
                    with trace.span("taxonomy.lca", b, inner=True):
                        db.lca.lca_batch(first, second)
                with trace.span("api.records", b):
                    records = records_from_classification(
                        db, headers, cls, packed.read_lengths)
                with trace.span("api.sink", b):
                    for record in records:
                        sink.write(record)
                tally["bases"] += int(packed.buffer.size)
                tally["batches"] += 1
                tally["windows"] += int(n_windows)
                tally["features"] += int(features.size)
                tally["hits"] += int(found.sum())
                tally["locations"] += int(locations.size)
                tally["reads"] += packed.n_reads
                if keep is not None:
                    keep.append((headers, codes, mate_codes))
    span = trace.spans[root]
    seconds = trace.totals(root)
    inner = sum(v for k, v in seconds.items() if k in ("warpcore.retrieve", "taxonomy.lca"))
    seconds["wall"] = span["end"] - span["start"] - inner
    tally["sink_bytes"] = tsv.stat().st_size
    counts.update(tally)
    return seconds


_QUERY_STAGES = ("genomics.fastq_parse", "pipeline.pack", "hashing.sketch_reads",
                 "core.query_features", "sort.compact", "sort.segmented_sort",
                 "core.top_candidates", "core.classify", "api.records", "api.sink")


def _taxon_column(tsv: Path) -> list[bytes]:
    return [line.split(b"\t")[1] for line in tsv.read_bytes().splitlines()[1:]]


def _trace_query(trace: Trace, db, inputs: Path, work: Path, spec: dict,
                 ops: Ops, m: dict, out: dict) -> list:
    """Query-side layer metrics; returns the parsed batches of one pass."""
    reads = inputs / "reads.fq"
    mates = inputs / "mates.fq" if (inputs / "mates.fq").exists() else None
    session = QuerySession(db)
    counts: dict = {}
    batches: list = []
    walls, rows, api_s = [], [], []
    for i in range(QUERY_PASSES + 1):
        gc.collect()
        with ops.guard("untraced classify pass"):
            t0 = time.perf_counter()
            classify_to(session, work / "classified.tsv", reads, mates)
            wall = time.perf_counter() - t0
        gc.collect()
        with ops.guard("staged classify pass"):
            seconds = _staged_query(trace, db, reads, mates, work / "staged.tsv",
                                    counts, batches if i == 0 else None)
        # the api layer over the same parsed batches: QuerySession.classify
        gc.collect()
        with ops.guard("session classify pass"):
            with trace.span("api.session_classify"):
                for headers, codes, mate_codes in batches:
                    session.classify(list(zip(headers, codes)), mate_codes)
        if i:
            walls.append(wall)
            rows.append(seconds)
            api_s.append(trace.last_s())
    out["checks"]["staged_pipeline_same_taxa"] = ops.check(
        "the staged pipeline assigns every read the taxon classify_files did",
        _taxon_column(work / "staged.tsv") == _taxon_column(work / "classified.tsv"))
    s = _median_by_key(rows)
    wall = statistics.median(walls)
    for name in _QUERY_STAGES + ("warpcore.retrieve", "taxonomy.lca"):
        m[name + "_s"] = s.get(name, 0.0)
    m["api.session_classify_s"] = statistics.median(api_s)
    m["trace.query_coverage_share"] = sum(s[name] for name in _QUERY_STAGES) / wall
    m["trace.overhead_share"] = s["wall"] / wall - 1.0
    m["genomics.read_bases"] = counts["bases"]
    m["pipeline.batches"] = counts["batches"]
    m["hashing.windows"] = counts["windows"]
    m["hashing.features"] = counts["features"]
    m["warpcore.retrieve_keys"] = counts["features"]
    m["warpcore.retrieve_hit_share"] = counts["hits"] / max(1, counts["features"])
    m["sort.sorted_locations"] = counts["locations"]
    m["core.locations_per_read"] = counts["locations"] / max(1, counts["reads"])
    m["api.sink_bytes"] = counts["sink_bytes"]
    out["untraced_reads_per_s"] = counts["reads"] / wall
    out["n_reads"] = counts["reads"]

    # one request-sized batch in process: the floor under request latency
    headers, codes, _ = batches[0]
    small = list(zip(headers, codes))[: spec["request_reads"]]
    times = []
    for _ in range(SMALL_BATCH_REPEATS):
        t0 = time.perf_counter()
        session.classify(small)
        times.append((time.perf_counter() - t0) * 1e3)
    m["api.small_batch_ms"] = statistics.median(times)

    # what a served response must say (paired workloads are served as first mates)
    out["served_tsv"] = str(work / "classified.tsv")
    if mates is not None:
        with ops.guard("single-end reference pass"):
            classify_to(session, work / "served.tsv", reads, None)
            out["served_tsv"] = str(work / "served.tsv")
    return batches


# ------------------------------------------------------------------ parallel


def _trace_parallel(trace: Trace, db, inputs: Path, batches: list, ops: Ops,
                    m: dict, one_process_reads_per_s: float) -> None:
    """The two worker pools, driven directly with 2 workers."""
    chunks = [(headers, PackedReads.from_reads(codes, mate_codes))
              for headers, codes, mate_codes in batches]
    n_reads = sum(len(headers) for headers, _ in chunks)
    with ops.guard("classifier pool", steps=2):
        with trace.span("parallel.pool_start"):
            engine = ParallelClassifier(db, workers=2)
        m["parallel.pool_start_s"] = trace.last_s()
        with engine:
            rates = []
            for i in range(QUERY_PASSES + 1):
                with trace.span("parallel.classify_chunks"):
                    done = sum(r.n_reads for r in engine.classify_chunks(chunks))
                if i and done == n_reads:
                    rates.append(n_reads / trace.last_s())
        m["parallel.classify_chunks_reads_per_s"] = statistics.median(rates)
        m["parallel.efficiency_share"] = statistics.median(rates) / (2 * one_process_reads_per_s)

    refs = [encode_sequence(r.sequence) for r in read_fasta(inputs / "refs.fa")]
    bases = sum(c.size for c in refs)
    with ops.guard("sketch pool", steps=2):
        with ParallelSketcher(db.params.sketch, 2) as pool:
            rates = []
            for i in range(BUILD_PASSES + 1):
                with trace.span("parallel.sketch_pool"):
                    for job, codes in enumerate(refs, start=i * len(refs)):
                        if pool.inflight >= pool.max_inflight:
                            for _ in pool.drain(pool.max_inflight):
                                pass
                        pool.submit(job, codes)
                    for _ in pool.drain_all():
                        pass
                if i:
                    rates.append(bases / 1e6 / trace.last_s())
        m["parallel.sketch_pool_mbp_per_s"] = statistics.median(rates)


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    inputs, work = Path(spec["inputs"]), Path(spec["work"])
    trace, ops = Trace(), Ops()
    metrics: dict = {}
    out: dict = {"checks": {}}
    db = _trace_build(trace, inputs, work, ops, metrics)
    batches = _trace_query(trace, db, inputs, work, spec, ops, metrics, out)
    _trace_parallel(trace, db, inputs, batches, ops, metrics, out["untraced_reads_per_s"])
    db.close()
    out.update(metrics=metrics, spans=trace.spans, attempted=ops.attempted,
               failed=ops.failed, v2_dir=str(work / "index-v2"))
    Path(spec["result"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
