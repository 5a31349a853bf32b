"""The per-layer metrics, and what each one should move.

Layers are the packages under ``src/repro/``.  Written down before
measuring (see the README's interaction notes): for every layer
metric, the end-to-end metrics it should move and the workload on
which it should move them most.  ``BENCHMARK.json`` lists the same
names with unit and direction only (its schema allows no more); the
smoke test keeps the two in step.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["LayerMetric", "LAYER_METRICS"]


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: tuple[str, ...]  # end-to-end metrics it should move
    where: str  # workload on which it should move them most


_READS = ("reads_per_s",)
_SERVED = ("reads_per_s", "served_reads_per_s")
_BUILD = ("build_mbp_per_s", "time_to_query_s")
_TTQ = ("time_to_query_s",)
_LATENCY = ("request_p50_ms", "request_p95_ms")

LAYER_METRICS: tuple[LayerMetric, ...] = (
    # genomics: parse + encode of the files the program is handed
    LayerMetric("genomics.fastq_parse_s", "s", "lower", _READS, "sparse-se"),
    LayerMetric("genomics.fasta_parse_s", "s", "lower", _BUILD, "sparse-se"),
    LayerMetric("genomics.read_bases", "count", "lower", _READS, "sparse-se"),
    # pipeline: list-of-arrays -> one packed buffer per batch
    LayerMetric("pipeline.pack_s", "s", "lower", _SERVED, "sparse-se"),
    LayerMetric("pipeline.batches", "count", "lower", _READS, "sparse-se"),
    # hashing: minhash sketches of read windows / reference windows
    LayerMetric("hashing.sketch_reads_s", "s", "lower", _SERVED, "sparse-se"),
    LayerMetric("hashing.sketch_refs_s", "s", "lower", _BUILD, "sparse-se"),
    LayerMetric("hashing.windows", "count", "lower", _READS, "sparse-se"),
    LayerMetric("hashing.features", "count", "lower", _READS, "sparse-se"),
    # warpcore: the hash tables (multi-bucket at build, single-value at query)
    LayerMetric("warpcore.insert_s", "s", "lower", _BUILD, "dense-pe"),
    LayerMetric("warpcore.insert_pairs", "count", "lower", _BUILD, "dense-pe"),
    LayerMetric("warpcore.load_factor", "share", "higher", ("index_bytes_per_base",), "sparse-se"),
    LayerMetric("warpcore.dropped_values", "count", "lower", ("species_sensitivity",), "dense-pe"),
    LayerMetric("warpcore.retrieve_s", "s", "lower", _SERVED, "sparse-se"),
    LayerMetric("warpcore.retrieve_keys", "count", "lower", _READS, "sparse-se"),
    LayerMetric("warpcore.retrieve_hit_share", "share", "higher", ("species_sensitivity",), "sparse-se"),
    # sort: per-read compaction + segmented sort of locations
    LayerMetric("sort.compact_s", "s", "lower", _SERVED, "dense-pe"),
    LayerMetric("sort.segmented_sort_s", "s", "lower", _SERVED, "dense-pe"),
    LayerMetric("sort.sorted_locations", "count", "lower", _READS, "dense-pe"),
    # core: builder, index layouts, on-disk formats, candidates, decision rule
    LayerMetric("core.builder_s", "s", "lower", _BUILD, "dense-pe"),
    LayerMetric("core.condense_s", "s", "lower", _TTQ, "sparse-se"),
    LayerMetric("core.save_s", "s", "lower", _TTQ, "sparse-se"),
    LayerMetric("core.open_s", "s", "lower", _TTQ, "sparse-se"),
    LayerMetric("core.first_batch_s", "s", "lower", _TTQ, "dense-pe"),
    LayerMetric("core.save_v2_s", "s", "lower", _TTQ, "sparse-se"),
    LayerMetric("core.open_v2_mmap_s", "s", "lower", ("setup_s",), "sparse-se"),
    LayerMetric("core.index_bytes", "bytes", "lower", ("index_bytes_per_base",), "sparse-se"),
    LayerMetric("core.query_features_s", "s", "lower", _SERVED, "sparse-se"),
    LayerMetric("core.locations_per_read", "count", "lower", _READS, "dense-pe"),
    LayerMetric("core.top_candidates_s", "s", "lower", _SERVED, "dense-pe"),
    LayerMetric("core.classify_s", "s", "lower", _READS, "dense-pe"),
    # taxonomy: LCA of tied candidates
    LayerMetric("taxonomy.lca_s", "s", "lower", ("reads_per_s", "species_precision"), "dense-pe"),
    # api: sessions, typed records, sinks
    LayerMetric("api.session_classify_s", "s", "lower", _READS, "sparse-se"),
    LayerMetric("api.records_s", "s", "lower", _SERVED, "sparse-se"),
    LayerMetric("api.sink_s", "s", "lower", _READS, "sparse-se"),
    LayerMetric("api.sink_bytes", "bytes", "lower", _READS, "sparse-se"),
    LayerMetric("api.small_batch_ms", "ms", "lower", _LATENCY, "sparse-se"),
    # parallel: the worker pools, measured with 2 workers by the traced
    # run.  No end-to-end workload sets workers > 1 (on a 2-core box it
    # would time the scheduler), so today these move no end-to-end
    # number; listed is what they move for a caller who does set it.
    LayerMetric("parallel.pool_start_s", "s", "lower", ("setup_s", "time_to_query_s"), "sparse-se"),
    LayerMetric("parallel.classify_chunks_reads_per_s", "1/s", "higher", _SERVED, "sparse-se"),
    LayerMetric("parallel.efficiency_share", "share", "higher", _SERVED, "sparse-se"),
    LayerMetric("parallel.sketch_pool_mbp_per_s", "Mbp/s", "higher", _BUILD, "sparse-se"),
    # server: HTTP front, micro-batcher, process
    LayerMetric("server.startup_s", "s", "lower", ("setup_s",), "sparse-se"),
    LayerMetric("server.healthz_ms", "ms", "lower", _LATENCY, "sparse-se"),
    LayerMetric("server.one_read_ms", "ms", "lower", _LATENCY, "sparse-se"),
    LayerMetric("server.batcher_p50_ms", "ms", "lower", _LATENCY, "dense-pe"),
    LayerMetric("server.http_overhead_ms", "ms", "lower", _LATENCY, "sparse-se"),
    LayerMetric("server.mean_batch_reads", "count", "higher", ("served_reads_per_s",), "sparse-se"),
    LayerMetric("server.batches", "count", "lower", ("served_reads_per_s",), "sparse-se"),
    LayerMetric("server.rejected_503", "count", "lower", ("ok_share", "request_on_time_share"), "dense-pe"),
    LayerMetric("server.cpu_s_per_kread", "s", "lower", ("served_reads_per_s",), "sparse-se"),
    LayerMetric("server.peak_rss_mib", "MiB", "lower", ("peak_rss_mib",), "sparse-se"),
    LayerMetric("server.request_p99_ms", "ms", "lower", ("request_p95_ms", "request_on_time_share"), "sparse-se"),
    # bench / trace: they qualify the rest and should move nothing
    LayerMetric("bench.generate_s", "s", "lower", ("setup_s",), "sparse-se"),
    LayerMetric("bench.loadgen_late_p95_ms", "ms", "lower", _LATENCY, "sparse-se"),
    LayerMetric("bench.loadavg_start", "count", "lower", _READS, "sparse-se"),
    LayerMetric("trace.query_coverage_share", "share", "higher", _READS, "sparse-se"),
    LayerMetric("trace.build_coverage_share", "share", "higher", _BUILD, "sparse-se"),
    LayerMetric("trace.overhead_share", "share", "lower", _READS, "sparse-se"),
)
