"""Micro-benchmarks of the query pipeline's vectorized kernels:
sketching throughput, segmented sort, candidate generation and
constant-time LCA batches.

Run through the bench harness:

    PYTHONPATH=src python -m pytest benchmarks/bench_micro_pipeline.py -q

End-to-end classify throughput is guarded on an absolute basis by
``reads_per_s`` in ``BENCHMARK.json`` (``benchmarks/e2e/``).
"""

import numpy as np

from repro.core.candidates import generate_top_candidates
from repro.gpu.kernels.segmented_sort_kernel import segmented_sort
from repro.hashing.sketch import SketchParams, sketch_reads, sketch_sequence
from repro.pipeline.packed import PackedReads
from repro.taxonomy.lca import LcaIndex
from repro.taxonomy.ranks import Rank
from repro.taxonomy.tree import Taxonomy
from repro.util.bitops import pack_pairs
from repro.util.scan import exclusive_prefix_sum

PARAMS = SketchParams()  # paper parameters


def test_sketch_reference_throughput(benchmark):
    rng = np.random.default_rng(0)
    genome = rng.integers(0, 4, 2_000_000).astype(np.uint8)

    sketches = benchmark(sketch_sequence, genome, PARAMS)
    assert sketches.shape[1] == 16
    benchmark.extra_info["bases_per_second"] = genome.size / benchmark.stats["mean"]


def test_sketch_read_batch_throughput(benchmark):
    rng = np.random.default_rng(1)
    reads = [rng.integers(0, 4, 101).astype(np.uint8) for _ in range(5_000)]

    def run():
        return sketch_reads(reads, PARAMS)

    sketches, win_ids = benchmark(run)
    assert win_ids.size == len(reads)
    benchmark.extra_info["reads_per_second"] = len(reads) / benchmark.stats["mean"]


def test_sketch_read_batch_packed_throughput(benchmark):
    """The packed kernel on a pre-packed batch (no adapter concat)."""
    rng = np.random.default_rng(1)
    reads = [rng.integers(0, 4, 101).astype(np.uint8) for _ in range(5_000)]
    packed = PackedReads.from_reads(reads)

    def run():
        from repro.hashing.sketch import sketch_reads_packed

        return sketch_reads_packed(
            packed.buffer, packed.offsets, PARAMS, packed.read_ids
        )

    sketches, win_ids = benchmark(run)
    assert win_ids.size == len(reads)
    benchmark.extra_info["reads_per_second"] = len(reads) / benchmark.stats["mean"]


def test_segmented_sort_throughput(benchmark):
    rng = np.random.default_rng(2)
    lengths = rng.geometric(1 / 80, size=30_000)
    offsets = exclusive_prefix_sum(lengths)
    values = rng.integers(0, 2**62, int(offsets[-1]), dtype=np.uint64)

    out = benchmark(segmented_sort, values, offsets)
    assert out.size == values.size
    benchmark.extra_info["locations_per_second"] = (
        values.size / benchmark.stats["mean"]
    )


def test_candidate_generation_throughput(benchmark):
    rng = np.random.default_rng(3)
    n_reads = 10_000
    per_read = 60
    locations = []
    for _ in range(n_reads):
        t = rng.integers(0, 20, per_read).astype(np.uint64)
        w = rng.integers(0, 50, per_read).astype(np.uint64)
        locations.append(np.sort(pack_pairs(t, w)))
    flat = np.concatenate(locations)
    offsets = exclusive_prefix_sum(np.full(n_reads, per_read))

    cands = benchmark(generate_top_candidates, flat, offsets, 3, 4)
    assert cands.n_reads == n_reads
    assert cands.valid[:, 0].all()


def test_lca_batch_throughput(benchmark):
    rng = np.random.default_rng(4)
    nodes = [(1, 1, Rank.ROOT, "root")]
    for i in range(2, 20_002):
        nodes.append((i, int(rng.integers(1, i)), Rank.SEQUENCE, f"n{i}"))
    taxonomy = Taxonomy(nodes)
    lca = LcaIndex(taxonomy)
    a = rng.integers(0, len(taxonomy), 100_000)
    b = rng.integers(0, len(taxonomy), 100_000)

    out = benchmark(lca.lca_batch, a, b)
    assert out.size == 100_000
    benchmark.extra_info["lcas_per_second"] = out.size / benchmark.stats["mean"]
