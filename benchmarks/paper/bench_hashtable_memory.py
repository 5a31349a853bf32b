"""Section 6's hash-table memory comparison.

Paper: "In the 4 GPU configuration our Multi Bucket Hash Table needed
10% and 11% less memory than WarpCore's Multi Value and Bucket List
Hash Table, respectively.  It was the only hash table that could fit
RefSeq202 on 4 GPUs."

The advantage exists for *skewed, redundant* k-mer streams: RefSeq202
packs 10.6G sketch features into <= 2^32 distinct 32-bit values, so
the mean multiplicity is >= 2.5 and conserved k-mers carry hundreds of
locations.  The bench therefore draws its stream from a redundancy-
rich reference collection (10 species per genus at 1% divergence --
mean multiplicity ~3.8 like the paper's regime), inserts the same
stream into all three layouts sized to the same target load factor on
their own slot-demand metric, and compares bytes per stored value.
"""

import numpy as np

from repro.core.config import MetaCacheParams
from repro.genomics.simulate import GenomeSimulator
from repro.hashing.minhash import SKETCH_PAD
from repro.hashing.sketch import sketch_sequence
from repro.util.bitops import pack_pairs
from repro.warpcore import (
    BucketListHashTable,
    MultiBucketHashTable,
    MultiValueHashTable,
)

from paper.bench.tables import format_bytes, render_table

BUCKET_SIZE = 4


def _feature_stream():
    """(feature, location) pairs with RefSeq-like multiplicity skew.

    20 closely related species per genus put most of the value mass
    on conserved (hot) features while most *distinct* features remain
    rare -- the "large fraction of k-mers occur only once while few
    occur many times" distribution of Section 4.1.
    """
    sim = GenomeSimulator(seed=7, species_divergence=0.003, indel_rate=0.0)
    genomes = sim.simulate_collection(3, 20, 25_000)
    params = MetaCacheParams()
    keys, vals = [], []
    for t, g in enumerate(genomes):
        sketches = sketch_sequence(g.scaffolds[0], params.sketch)
        if not sketches.shape[0]:
            continue
        window_ids = np.repeat(
            np.arange(sketches.shape[0], dtype=np.uint64), sketches.shape[1]
        )
        feats = sketches.reshape(-1)
        valid = feats != SKETCH_PAD
        keys.append(feats[valid])
        vals.append(
            pack_pairs(
                np.full(int(valid.sum()), t, dtype=np.uint64), window_ids[valid]
            )
        )
    return np.concatenate(keys), np.concatenate(vals)


def _insert_all(keys, vals):
    _, key_counts = np.unique(keys, return_counts=True)
    n = keys.size
    uniq = key_counts.size
    # exact slot demand of the multi-bucket layout on this stream
    # (the builder's pre-pass sizing; MetaCache sizes tables the same
    # way from the feature census)
    mb_slots_needed = int(np.ceil(key_counts / BUCKET_SIZE).sum())
    tables = {
        "Multi Bucket (ours)": MultiBucketHashTable(
            capacity_values=mb_slots_needed * BUCKET_SIZE,
            bucket_size=BUCKET_SIZE,
            expected_unique_keys=1,  # sizing fully via capacity_values
        ),
        "Multi Value": MultiValueHashTable(capacity_values=n),
        "Bucket List": BucketListHashTable(capacity_keys=uniq),
    }
    stats = {}
    for name, table in tables.items():
        table.insert(keys, vals)
        stats[name] = table.stats()
    return stats


def test_hashtable_memory_comparison(benchmark, report):
    keys, vals = _feature_stream()
    uniq = np.unique(keys).size
    stats = benchmark.pedantic(_insert_all, args=(keys, vals), rounds=1, iterations=1)
    base = stats["Multi Bucket (ours)"].bytes_total
    rows = [
        [
            name,
            format_bytes(s.bytes_total),
            f"{s.bytes_per_stored_value:.1f}",
            f"{100 * (s.bytes_total - base) / base:+.0f}%",
            f"{s.load_factor:.2f}",
        ]
        for name, s in stats.items()
    ]
    text = render_table(
        "Hash table memory on the same k-mer stream (Section 6)",
        ["Layout", "Total bytes", "B/value", "vs Multi Bucket", "Load"],
        rows,
    )
    text += (
        f"\nstream: {keys.size:,} values over {uniq:,} distinct features "
        f"(multiplicity {keys.size / uniq:.2f})\n"
        "paper: Multi Bucket needed 10% / 11% less than Multi Value /"
        " Bucket List on RefSeq202 (4 GPUs)\n"
    )
    report(text)
    # every table stored the full stream
    for name, s in stats.items():
        assert s.stored_values == keys.size, (name, s.stored_values, keys.size)
    # the paper's ordering: multi-bucket is smallest
    assert base < stats["Multi Value"].bytes_total
    assert base < stats["Bucket List"].bytes_total