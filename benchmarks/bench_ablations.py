"""Ablations of the design choices DESIGN.md calls out.

1. **Bucket size B**: the multi-bucket layout's central knob -- B=1
   degenerates toward the multi-value layout (key repeated per
   value), large B wastes cells on rare keys.  Sweeps memory and
   insert/retrieve time on a RefSeq-like stream.
2. **Batch (warp-aggregated) vs per-element insertion**: the paper's
   insertion is warp-cooperative; this measures what dies when every
   pair probes alone.
3. **Segmented sort**: size-binned bitonic batching (Hou et al.) vs
   per-segment reference sort vs the production single-key sort.
4. **Sketch size s**: accuracy/throughput trade of the minhash
   subsampling (s = 8 / 16 / 32).
"""

import numpy as np
import pytest

from repro.bench.tables import format_bytes, format_seconds, render_table
from repro.bench.workloads import hiseq_mini, refseq_mini
from repro.core.classify import classify_reads
from repro.core.config import MetaCacheParams
from repro.core.database import Database
from repro.core.query import query_database
from repro.core.stats import evaluate_accuracy
from repro.gpu.kernels.segmented_sort_kernel import (
    segmented_sort,
    segmented_sort_reference,
)
from repro.hashing.sketch import SketchParams
from repro.sort.segmented import segmented_sort_lexsort
from repro.util.bitops import pack_pairs
from repro.util.scan import exclusive_prefix_sum
from repro.util.timer import Timer
from repro.warpcore import MultiBucketHashTable


@pytest.fixture(scope="module")
def kmer_stream():
    rng = np.random.default_rng(11)
    n = 150_000
    # Zipf-flavored key multiplicities: many rare, few very hot
    n_keys = 40_000
    weights = 1.0 / np.arange(1, n_keys + 1) ** 0.9
    keys = rng.choice(n_keys, size=n, p=weights / weights.sum()).astype(np.uint64)
    vals = rng.integers(0, 2**62, n, dtype=np.uint64)
    return keys, vals


def test_ablation_bucket_size(benchmark, report, kmer_stream):
    keys, vals = kmer_stream
    _, counts = np.unique(keys, return_counts=True)

    def sweep():
        rows = []
        # MetaCache's production cap (254) bounds hot-key chains --
        # without it, Zipf head keys exceed any probe budget at B=1
        capped = np.minimum(counts, 254)
        for B in (1, 2, 4, 8, 16):
            need = int(np.ceil(capped / B).sum())
            table = MultiBucketHashTable(
                capacity_values=need * B,
                bucket_size=B,
                expected_unique_keys=1,
                max_locations_per_key=254,
            )
            with Timer() as t_ins:
                table.insert(keys, vals)
            uniq = np.unique(keys)
            with Timer() as t_ret:
                table.retrieve(uniq)
            s = table.stats()
            rows.append((B, s, t_ins.elapsed, t_ret.elapsed))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table_rows = [
        [f"B={B}", format_bytes(s.bytes_total), f"{s.bytes_per_stored_value:.1f}",
         format_seconds(ti), format_seconds(tr), s.stored_values]
        for B, s, ti, tr in rows
    ]
    report(
        render_table(
            "Ablation: multi-bucket slot size B (Zipf stream, cap 254)",
            ["Layout", "Bytes", "B/value", "Insert", "Retrieve", "Stored"],
            table_rows,
        )
    )
    # every layout stores the capped multiset; B=1 (the multi-value
    # degeneration) may shed a tiny overflow fraction because a hot
    # key's 254-slot chain can exceed the probe budget -- exactly the
    # chain-length pathology the multi-bucket layout removes
    expected = int(np.minimum(counts, 254).sum())
    for B, s, _, _ in rows:
        if B == 1:
            assert s.stored_values >= 0.995 * expected
        else:
            assert s.stored_values == expected, f"B={B}"
    by_b = {B: s for B, s, _, _ in rows}
    # the design point of the paper's layout: a small B > 1 beats
    # both extremes -- B=1 repeats the key per value (multi-value
    # degeneration), very large B wastes cells on the rare-key
    # majority.  The optimum depends on the multiplicity mix.
    best_b = min(by_b, key=lambda B: by_b[B].bytes_total)
    assert best_b in (2, 4), f"optimum at B={best_b}"
    assert by_b[best_b].bytes_total < by_b[1].bytes_total
    assert by_b[best_b].bytes_total < by_b[16].bytes_total


def test_ablation_batch_vs_scalar_insert(benchmark, report, kmer_stream):
    keys, vals = kmer_stream
    n = 30_000  # scalar path is slow; subset suffices

    def run_both():
        t_batch = MultiBucketHashTable(capacity_values=n, bucket_size=4)
        with Timer() as tb:
            t_batch.insert(keys[:n], vals[:n])
        t_scalar = MultiBucketHashTable(capacity_values=n, bucket_size=4)
        with Timer() as ts:
            for i in range(n):
                t_scalar.insert(keys[i : i + 1], vals[i : i + 1])
        return tb.elapsed, ts.elapsed, t_batch, t_scalar

    tb, ts, t_batch, t_scalar = benchmark.pedantic(run_both, rounds=1, iterations=1)
    report(
        render_table(
            "Ablation: batch (warp-aggregated) vs per-element insertion",
            ["Strategy", "Time", "Pairs/s"],
            [
                ["batch", format_seconds(tb), f"{n / tb:,.0f}"],
                ["per-element", format_seconds(ts), f"{n / ts:,.0f}"],
                ["speedup", f"{ts / tb:.0f}x", ""],
            ],
        )
    )
    assert t_batch.stored_values == t_scalar.stored_values == n
    assert tb * 5 < ts  # batching wins by a large factor


def test_ablation_segmented_sort(benchmark, report):
    """Three segmented-sort strategies on a skewed segment mix.

    The binned bitonic network mirrors the GPU kernel *structure*
    (Hou et al.); on a CPU its per-step fancy indexing loses to both
    one global single-key ``np.sort`` over ``(segment | value)`` (the
    production path here) and the per-segment loop.  On the actual GPU
    the ordering inverts -- the network runs in registers -- which is
    why Section 5.5 adopts it.  All three must agree bit for bit.
    """
    rng = np.random.default_rng(3)
    lengths = rng.geometric(1 / 60, size=20_000)  # skewed segment sizes
    offsets = exclusive_prefix_sum(lengths)
    # location-shaped values (target << 32 | window), as the pipeline sorts
    n = int(offsets[-1])
    values = pack_pairs(rng.integers(0, 2**14, n), rng.integers(0, 2**20, n))

    def run_all():
        with Timer() as t_binned:
            out1 = segmented_sort(values, offsets)
        with Timer() as t_ref:
            out2 = segmented_sort_reference(values, offsets)
        with Timer() as t_lex:
            out3 = segmented_sort_lexsort(values, offsets)
        return (t_binned.elapsed, t_ref.elapsed, t_lex.elapsed), (out1, out2, out3)

    (tb, tr, tl), (out1, out2, out3) = benchmark.pedantic(
        run_all, rounds=1, iterations=1
    )
    report(
        render_table(
            "Ablation: segmented sort strategies (20k skewed segments)",
            ["Variant", "Time", "Locations/s"],
            [
                ["binned bitonic (GPU-shaped)", format_seconds(tb),
                 f"{values.size / tb:,.0f}"],
                ["per-segment np.sort", format_seconds(tr),
                 f"{values.size / tr:,.0f}"],
                ["single-key np.sort (production)", format_seconds(tl),
                 f"{values.size / tl:,.0f}"],
            ],
        )
    )
    assert np.array_equal(out1, out2)
    assert np.array_equal(out2, out3)
    # the production choice is never the slowest of the three
    assert tl < max(tb, tr)


def test_ablation_sketch_size(benchmark, report):
    refset = refseq_mini()
    ds = hiseq_mini()
    reads = ds.reads

    def sweep():
        rows = []
        for s in (8, 16, 32):
            params = MetaCacheParams(
                sketch=SketchParams(k=16, sketch_size=s, window_size=127)
            )
            db = Database.build(refset.references, refset.taxonomy, params=params)
            with Timer() as t:
                res = query_database(db, reads.sequences)
                cls = classify_reads(db, res.candidates)
            rep = evaluate_accuracy(
                refset.taxonomy, cls, ds.true_species, ds.true_genus
            )
            rows.append((s, db.nbytes, t.elapsed, rep))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        render_table(
            "Ablation: sketch size s (HiSeq-like vs refseq-mini)",
            ["s", "DB bytes", "Query time", "Sp.Sens", "Gen.Sens"],
            [
                [s, format_bytes(b), format_seconds(t),
                 f"{100 * r.species.sensitivity:.1f}%",
                 f"{100 * r.genus.sensitivity:.1f}%"]
                for s, b, t, r in rows
            ],
        )
    )
    by_s = {s: (b, t, r) for s, b, t, r in rows}
    # larger sketches store more features...
    assert by_s[8][0] < by_s[32][0]
    # ...and recover more reads (sensitivity monotone in s here)
    assert by_s[32][2].species.sensitivity >= by_s[8][2].species.sensitivity
